// Package ilu implements block incomplete LU factorization with level-of-
// fill control — ILU(k) — on block CSR matrices, the subdomain solver of
// the paper's additive Schwarz preconditioner (Tables 1, 3, 4), plus the
// single-precision storage variant whose bandwidth savings Table 2
// measures. Factorization and solves operate on B×B blocks; all
// arithmetic is float64 even when storage is float32.
package ilu

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// symbolic is the value-independent half of a factorization: the ILU(k)
// fill pattern, the level-set schedule of the solves, and the scatter of
// A's blocks into the pattern. It is a pure function of A's sparsity and
// the fill level, so it is built once and reused by every Refactor.
type symbolic struct {
	NB     int
	B      int
	Level  int
	RowPtr []int32
	ColIdx []int32 // sorted within each row; includes the diagonal
	diagK  []int32 // index (block slot) of the diagonal in each row

	// Level-set schedule of the triangular solves (levels.go): block
	// rows grouped by dependency depth in the L (forward) and U
	// (backward) DAGs, computed once from the symbolic pattern. Level
	// l's rows are fwdRows[fwdPtr[l]:fwdPtr[l+1]] (ascending within each
	// level); rows of one level depend only on rows of earlier levels,
	// so a level can run on the worker pool.
	fwdRows, bwdRows []int32
	fwdPtr, bwdPtr   []int32
	// seqRows and revRows list the rows ascending and descending: the
	// natural orders Solve's forward and backward sweeps run in.
	seqRows, revRows []int32

	// scatter[k] is the factor slot receiving A's stored block k; fill
	// lists the slots no block of A reaches (zeroed before each
	// numeric pass).
	scatter []int32
	fill    []int32
}

// Factorization holds the combined L\U factors of a block ILU(k)
// factorization. L has implicit identity diagonal blocks; U's diagonal
// blocks are stored inverted for fast triangular solves.
type Factorization struct {
	symbolic

	// Exactly one of val64/val32 is non-nil, per the storage precision.
	val64 []float64
	val32 []float32
	// invDiag stores the inverted U diagonal blocks (always float64 in
	// the double path, float32 in the single path).
	invDiag64 []float64
	invDiag32 []float32

	// Numeric-phase workspace: marker maps a column of the row being
	// eliminated to its factor slot (-1 outside the row, restored after
	// every row); factor, tmp and aug hold one multiplier block, one
	// product block and one augmented inversion matrix.
	marker      []int32
	factor, tmp []float64
	aug         []float64

	// Solve scratch, hoisted out of the bandwidth-bound sweeps: one
	// B-long diagonal-multiply temporary per pool worker (Solve uses the
	// first); Factor sizes it for one.
	scratch []float64
	task    triTask
}

// ErrSingularPivot reports a numerically singular U diagonal block; the
// wrapping error names the block row.
var ErrSingularPivot = errors.New("ilu: singular pivot block")

// Options configures a factorization.
type Options struct {
	// Level is the fill level k of ILU(k): 0 keeps the sparsity of A.
	Level int
	// SinglePrecision stores the factors in float32 (half the memory
	// traffic in the bandwidth-bound triangular solves).
	SinglePrecision bool
}

// NNZBlocks returns the number of stored blocks in the factors.
func (f *Factorization) NNZBlocks() int { return len(f.ColIdx) }

// BytesPerValue returns 4 or 8 according to the storage precision.
func (f *Factorization) BytesPerValue() int {
	if f.val32 != nil {
		return 4
	}
	return 8
}

// FactorFlopsFor estimates the floating-point work of factoring nnzb
// stored blocks of size b: each block participates in O(1) block-block
// multiplies of 2b³ flops. Shared between the measured profiler and the
// virtual-machine cost model (internal/core).
func FactorFlopsFor(nnzb, b int) int64 {
	return 2 * int64(nnzb) * int64(b) * int64(b) * int64(b)
}

// FactorBytesFor estimates factorization traffic: each stored block read
// and written a small constant number of times at valBytes per scalar.
func FactorBytesFor(nnzb, b, valBytes int) int64 {
	return 3 * int64(nnzb) * int64(b) * int64(b) * int64(valBytes)
}

// FactorFlops estimates the floating-point work of this factorization.
func (f *Factorization) FactorFlops() int64 {
	return FactorFlopsFor(len(f.ColIdx), f.B)
}

// FactorBytes estimates this factorization's memory traffic.
func (f *Factorization) FactorBytes() int64 {
	return FactorBytesFor(len(f.ColIdx), f.B, f.BytesPerValue())
}

// Factor computes the block ILU(k) factorization of a: the symbolic
// analysis of a's pattern followed by the numeric factorization of its
// values (see Refactor).
func Factor(a *sparse.BCSR, opts Options) (*Factorization, error) {
	if opts.Level < 0 {
		return nil, fmt.Errorf("ilu: negative fill level %d", opts.Level)
	}
	sp := prof.Begin(prof.PhaseILUFactor)
	f := &Factorization{symbolic: symbolic{NB: a.NB, B: a.B, Level: opts.Level}}
	defer func() { sp.End(f.FactorFlops(), f.FactorBytes()) }()
	if err := f.analyze(a); err != nil {
		return nil, err
	}
	bb := a.B * a.B
	if opts.SinglePrecision {
		f.val32 = make([]float32, len(f.ColIdx)*bb)
		f.invDiag32 = make([]float32, f.NB*bb)
	} else {
		f.val64 = make([]float64, len(f.ColIdx)*bb)
		f.invDiag64 = make([]float64, f.NB*bb)
	}
	f.marker = make([]int32, f.NB)
	for i := range f.marker {
		f.marker[i] = -1
	}
	f.factor = make([]float64, bb)
	f.tmp = make([]float64, bb)
	f.aug = make([]float64, 2*bb)
	f.scratch = make([]float64, a.B)
	if err := f.refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes the factors from new values of the matrix Factor
// analyzed, reusing the symbolic structure: a must have that matrix's
// block pattern, and a matrix with another pattern is refused before
// any value is touched. The result is bitwise identical to a fresh
// Factor of a. After a numeric error the factors are unusable until a
// Refactor succeeds; every Refactor starts clean, whatever the previous
// one left behind. The double-precision path does not allocate.
func (f *Factorization) Refactor(a *sparse.BCSR) error {
	if !f.samePattern(a) {
		return fmt.Errorf("ilu: refactor of a %d-row B=%d matrix with %d blocks whose pattern differs from the factored one (%d rows, B=%d, %d blocks)",
			a.NB, a.B, len(a.ColIdx), f.NB, f.B, len(f.scatter))
	}
	sp := prof.Begin(prof.PhaseILUFactor)
	defer sp.End(f.FactorFlops(), f.FactorBytes())
	return f.refactor(a)
}

// refactor runs the numeric phase in the storage precision: the
// single-precision path factors in float64 work arrays and rounds them
// into its float32 storage.
func (f *Factorization) refactor(a *sparse.BCSR) error {
	if f.val32 == nil {
		return f.numeric(a, f.val64, f.invDiag64)
	}
	val := make([]float64, len(f.val32))
	inv := make([]float64, len(f.invDiag32))
	if err := f.numeric(a, val, inv); err != nil {
		return err
	}
	for i, v := range val {
		f.val32[i] = float32(v)
	}
	for i, v := range inv {
		f.invDiag32[i] = float32(v)
	}
	return nil
}

// samePattern reports whether a has the block pattern the symbolic
// structure was analyzed from: every stored block of a must reach,
// through the scatter, the factor slot of its own row and column. One
// pass over the indices, without allocation.
func (s *symbolic) samePattern(a *sparse.BCSR) bool {
	n := len(s.scatter)
	if a.NB != s.NB || a.B != s.B || len(a.ColIdx) != n || len(a.Val) != n*s.B*s.B ||
		len(a.RowPtr) != s.NB+1 || a.RowPtr[0] != 0 || int(a.RowPtr[s.NB]) != n {
		return false
	}
	for i := 0; i < s.NB; i++ {
		lo, hi := s.RowPtr[i], s.RowPtr[i+1]
		if a.RowPtr[i+1] < a.RowPtr[i] {
			return false
		}
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			k := s.scatter[ka]
			if k < lo || k >= hi || s.ColIdx[k] != a.ColIdx[ka] {
				return false
			}
		}
	}
	return true
}

// analyze computes the symbolic structure of a's ILU(k) factorization:
// the fill pattern, the level-set schedule, and the scatter of a's
// blocks into the pattern.
func (s *symbolic) analyze(a *sparse.BCSR) error {
	if err := s.pattern(a, s.Level); err != nil {
		return err
	}
	s.buildLevels()
	// Scatter: rows of a (a BCSR invariant) and of the pattern are both
	// sorted, and a's columns are a subset of the pattern's, so one merge
	// per row maps every block. A row that breaks the invariant fails
	// the merge.
	s.scatter = make([]int32, len(a.ColIdx))
	hit := make([]bool, len(s.ColIdx))
	for i := 0; i < s.NB; i++ {
		k := s.RowPtr[i]
		for ka := a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			j := a.ColIdx[ka]
			for k < s.RowPtr[i+1] && s.ColIdx[k] < j {
				k++
			}
			if k == s.RowPtr[i+1] || s.ColIdx[k] != j {
				return fmt.Errorf("ilu: pattern lost entry (%d,%d)", i, j)
			}
			s.scatter[ka] = k
			hit[k] = true
			k++
		}
	}
	// The scatter is injective, so the rest of the pattern is fill.
	s.fill = make([]int32, len(s.ColIdx)-len(a.ColIdx))
	n := 0
	for k, h := range hit {
		if !h {
			s.fill[n] = int32(k)
			n++
		}
	}
	return nil
}

// pattern computes the ILU(k) fill pattern by the standard level-of-fill
// recurrence: lev(i,j) = min over pivots p of lev(i,p)+lev(p,j)+1, kept
// when ≤ k. Row patterns are computed in ascending row order so that
// earlier (already-final) rows drive fill in later ones.
func (f *symbolic) pattern(a *sparse.BCSR, level int) error {
	nb := a.NB
	rowCols := make([][]int32, nb)
	rowLevs := make([][]int32, nb)
	// Dense workspace for the current row.
	lev := make([]int32, nb)
	inRow := make([]bool, nb)
	for i := 0; i < nb; i++ {
		// Seed with A's row i (level 0) plus the diagonal.
		cols := make([]int32, 0, int(a.RowPtr[i+1]-a.RowPtr[i])+1) //lint:alloc-ok per-factorization symbolic analysis; the fill pattern is being discovered
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			cols = append(cols, j) //lint:alloc-ok per-factorization symbolic fill discovery
			lev[j] = 0
			inRow[j] = true
		}
		if !inRow[i] {
			cols = append(cols, int32(i)) //lint:alloc-ok per-factorization symbolic fill discovery
			lev[i] = 0
			inRow[i] = true
		}
		// Eliminate pivots p < i in ascending order: collect the current
		// lower-diagonal columns, sort, and process each once. Fill
		// columns discovered during processing that are still below the
		// diagonal are inserted into the pending list in order, so every
		// pivot is processed exactly once, ascending.
		lower := make([]int32, 0, len(cols)) //lint:alloc-ok per-factorization symbolic pivot list
		for _, j := range cols {
			if j < int32(i) {
				lower = append(lower, j) //lint:alloc-ok per-factorization symbolic pivot list
			}
		}
		slices.Sort(lower)
		for li := 0; li < len(lower); li++ {
			p := lower[li]
			levIP := lev[p]
			for t, j := range rowCols[p] {
				if j <= p {
					continue
				}
				through := levIP + rowLevs[p][t] + 1
				if through > int32(level) {
					continue
				}
				if !inRow[j] {
					inRow[j] = true
					lev[j] = through
					cols = append(cols, j) //lint:alloc-ok per-factorization symbolic fill discovery
					if j < int32(i) {
						// Insert into the pending pivot list, keeping order.
						lower = insertSorted(lower, li+1, j)
					}
				} else if through < lev[j] {
					lev[j] = through
				}
			}
		}
		slices.Sort(cols)
		levs := make([]int32, len(cols)) //lint:alloc-ok per-factorization symbolic row levels
		for t, j := range cols {
			levs[t] = lev[j]
			inRow[j] = false
		}
		rowCols[i] = cols
		rowLevs[i] = levs
	}
	// Assemble CSR-ish structure.
	f.RowPtr = make([]int32, nb+1)
	total := 0
	for i := 0; i < nb; i++ {
		total += len(rowCols[i])
	}
	f.ColIdx = make([]int32, 0, total)
	f.diagK = make([]int32, nb)
	for i := 0; i < nb; i++ {
		found := false
		for t, j := range rowCols[i] {
			if j == int32(i) {
				f.diagK[i] = f.RowPtr[i] + int32(t)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("ilu: row %d lost its diagonal", i)
		}
		f.ColIdx = append(f.ColIdx, rowCols[i]...) //lint:alloc-ok appends into capacity preallocated to the exact total
		f.RowPtr[i+1] = int32(len(f.ColIdx))
	}
	return nil
}

// insertSorted inserts v into s keeping positions >= from sorted.
func insertSorted(s []int32, from int, v int32) []int32 {
	s = append(s, 0)
	k := len(s) - 1
	for k > from && s[k-1] > v {
		s[k] = s[k-1]
		k--
	}
	s[k] = v
	return s
}

// numeric performs the block IKJ elimination on the symbolic pattern,
// writing the factors into val and the inverted U diagonal blocks into
// inv. Fill slots are zeroed and a's blocks scattered in first, so the
// result depends only on a's values. The positions of row i's columns
// live in the dense marker while row i is eliminated.
func (f *Factorization) numeric(a *sparse.BCSR, val, inv []float64) error {
	b := f.B
	bb := b * b
	for _, k := range f.fill {
		clear(val[int(k)*bb : int(k)*bb+bb]) //lint:bce-ok fill slots are data-dependent
	}
	for ka, k := range f.scatter {
		copy(val[int(k)*bb:int(k)*bb+bb], a.Val[ka*bb:ka*bb+bb]) //lint:bce-ok scatter through the symbolic map; the destination offset is data-dependent
	}
	marker, factor, tmp := f.marker, f.factor, f.tmp
	for i := 0; i < f.NB; i++ {
		lo, hi := f.RowPtr[i], f.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			marker[f.ColIdx[k]] = k //lint:bce-ok column-indexed marker; the column is data-dependent
		}
		for k := lo; k < f.diagK[i]; k++ {
			p := int(f.ColIdx[k])
			// factor = A_ip * invU_pp, stored as L_ip.
			lip := val[int(k)*bb : int(k)*bb+bb]
			matMul(lip, inv[p*bb:p*bb+bb], factor, b)
			copy(lip, factor)
			// Row update: A_ij -= factor * U_pj for the U blocks of row
			// p (columns j > p), where (i, j) survived the level rule.
			for kp := f.diagK[p] + 1; kp < f.RowPtr[p+1]; kp++ {
				dst := int(marker[f.ColIdx[kp]])
				if dst < 0 {
					continue // fill dropped by the level rule
				}
				blk := val[dst*bb : dst*bb+bb]
				u := val[int(kp)*bb : int(kp)*bb+bb]
				switch b {
				case 4:
					mulSub4(blk, factor, u)
				default:
					matMul(factor, u, tmp, b)
					blk = blk[:len(tmp)]
					for z, t := range tmp {
						blk[z] -= t
					}
				}
			}
		}
		for k := lo; k < hi; k++ {
			marker[f.ColIdx[k]] = -1 //lint:bce-ok column-indexed marker; the column is data-dependent
		}
		kd := int(f.diagK[i])
		if err := invertBlock(val[kd*bb:kd*bb+bb], inv[i*bb:i*bb+bb], f.aug, b); err != nil {
			return fmt.Errorf("%w at row %d: %w", ErrSingularPivot, i, err) //lint:escape-ok error exit: boxes the row once, when the factorization fails
		}
	}
	return nil
}

// mulSub4 computes c -= a*u for row-major 4×4 blocks without a product
// temporary. Each product entry is summed from zero in matMul's k
// order, so the result is bitwise identical to matMul then subtract.
func mulSub4(c, a, u []float64) {
	cc, aa, uu := (*[16]float64)(c), (*[16]float64)(a), (*[16]float64)(u)
	for i := 0; i < 16; i += 4 {
		a0, a1, a2, a3 := aa[i], aa[i+1], aa[i+2], aa[i+3]
		cc[i] -= 0 + a0*uu[0] + a1*uu[4] + a2*uu[8] + a3*uu[12]
		cc[i+1] -= 0 + a0*uu[1] + a1*uu[5] + a2*uu[9] + a3*uu[13]
		cc[i+2] -= 0 + a0*uu[2] + a1*uu[6] + a2*uu[10] + a3*uu[14]
		cc[i+3] -= 0 + a0*uu[3] + a1*uu[7] + a2*uu[11] + a3*uu[15]
	}
}

// matMul computes c = a*b for row-major b×b blocks.
func matMul(a, b, c []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// invertBlock inverts the row-major n×n block src into dst using
// Gauss-Jordan with partial pivoting; aug (length 2n²) holds the
// augmented matrix [A | I].
func invertBlock(src, dst, aug []float64, n int) error {
	w := 2 * n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug[i*w+j] = src[i*n+j]
			aug[i*w+n+j] = 0
		}
		aug[i*w+n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r*w+col]) > math.Abs(aug[piv*w+col]) {
				piv = r
			}
		}
		if math.Abs(aug[piv*w+col]) < 1e-300 {
			return fmt.Errorf("zero pivot in column %d", col)
		}
		if piv != col {
			for j := 0; j < w; j++ {
				aug[col*w+j], aug[piv*w+j] = aug[piv*w+j], aug[col*w+j]
			}
		}
		inv := 1 / aug[col*w+col]
		for j := 0; j < w; j++ {
			aug[col*w+j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			fac := aug[r*w+col]
			if fac == 0 {
				continue
			}
			for j := 0; j < w; j++ {
				aug[r*w+j] -= fac * aug[col*w+j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = aug[i*w+n+j]
		}
	}
	return nil
}
