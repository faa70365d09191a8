// Package schwarz implements the domain-decomposition preconditioners of
// the paper: block Jacobi (zero overlap) and restricted additive Schwarz
// (RASM) with configurable overlap, with block ILU(k) as the subdomain
// solver. RASM applies the prolongation only to owned unknowns, which
// halves the communication of standard ASM — the variant the paper uses
// (section 2.4.3, citing Cai & Sarkis).
package schwarz

import (
	"errors"
	"fmt"
	"slices"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Options configures the preconditioner.
type Options struct {
	// Overlap is the number of BFS layers added to each subdomain
	// (0 = block Jacobi; Table 4 sweeps 0..2).
	Overlap int
	// ILU configures the subdomain solver (fill level, storage
	// precision).
	ILU ilu.Options
	// Pool is the node-level worker pool for the level-scheduled
	// subdomain triangular solves; nil solves sequentially. A non-nil
	// pool serves one solve at a time, so concurrent ApplySubdomain
	// calls (the virtual machine's per-rank accounting) require nil.
	Pool *par.Pool
}

// Subdomain is the solver state of one part: the owned and extended
// (owned + overlap) block rows, the extracted local matrix, and its
// ILU factorization.
type Subdomain struct {
	Owned    []int32 // global block rows owned by this part, sorted
	Extended []int32 // owned plus overlap layers, sorted
	Local    *sparse.BCSR
	Factor   *ilu.Factorization

	ownedLocal []int32 // local row of each Owned row (the prolongation)
	src        []int32 // src[k]: the global block refilling Local's block k
	rhs        []float64
	sol        []float64
}

// Preconditioner is a block Jacobi / RASM preconditioner over a
// partitioned global block matrix. It remembers the block pattern it was
// built on, so Refresh can refill it in place from new values; like
// the factorizations inside it, it serves one solve at a time.
type Preconditioner struct {
	NB   int
	B    int
	Opts Options
	Subs []*Subdomain

	rowPtr, colIdx []int32 // the global block pattern
}

// ErrPatternChanged reports a Refresh with a matrix whose block pattern
// differs from the one the preconditioner was built on; New must build
// a fresh preconditioner for it.
var ErrPatternChanged = errors.New("schwarz: block pattern changed")

// New builds the preconditioner for global matrix a partitioned by part
// (length a.NB, values in [0, nparts)).
func New(a *sparse.BCSR, part []int32, nparts int, opts Options) (*Preconditioner, error) {
	if len(part) != a.NB {
		return nil, fmt.Errorf("schwarz: partition length %d, matrix has %d block rows", len(part), a.NB)
	}
	if opts.Overlap < 0 {
		return nil, fmt.Errorf("schwarz: negative overlap %d", opts.Overlap)
	}
	sp := prof.Begin(prof.PhasePCSetup)
	p := &Preconditioner{
		NB: a.NB, B: a.B, Opts: opts, Subs: make([]*Subdomain, nparts),
		rowPtr: slices.Clone(a.RowPtr), colIdx: slices.Clone(a.ColIdx),
	}
	// Extraction copy traffic; the factorizations report their own work.
	defer func() { sp.End(0, p.refillBytes()) }()
	owned := make([][]int32, nparts)
	for i, q := range part {
		if q < 0 || int(q) >= nparts {
			return nil, fmt.Errorf("schwarz: row %d in invalid part %d", i, q)
		}
		owned[q] = append(owned[q], int32(i)) //lint:alloc-ok one-time partition of rows at preconditioner setup
	}
	// local is the dense global→local row index of the subdomain being
	// built (-1 outside it), restored after each subdomain.
	local := make([]int32, a.NB)
	for i := range local {
		local[i] = -1
	}
	for q := 0; q < nparts; q++ {
		sub, err := buildSubdomain(a, owned[q], opts, local)
		if err != nil {
			return nil, fmt.Errorf("schwarz: subdomain %d: %w", q, err)
		}
		p.Subs[q] = sub
	}
	return p, nil
}

// buildSubdomain extracts and factors one part's local matrix in time
// linear in the subdomain's blocks (plus the sort of its rows). local
// must be all -1 on entry and is all -1 again on return.
func buildSubdomain(a *sparse.BCSR, owned []int32, opts Options, local []int32) (*Subdomain, error) {
	if len(owned) == 0 {
		return nil, fmt.Errorf("empty subdomain")
	}
	s := &Subdomain{Owned: owned}
	// Expand by BFS layers over the block sparsity graph, marking
	// members in local (any value ≥ 0 until the rows are numbered).
	ext := append([]int32(nil), owned...)
	for _, r := range owned {
		local[r] = 0
	}
	for layer, lo := 0, 0; layer < opts.Overlap; layer++ {
		hi := len(ext)
		for _, r := range ext[lo:hi] {
			for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
				if local[j] < 0 {
					local[j] = 0
					ext = append(ext, j) //lint:alloc-ok one-time BFS overlap expansion at subdomain setup
				}
			}
		}
		lo = hi
	}
	slices.Sort(ext)
	s.Extended = ext
	for li, r := range ext {
		local[r] = int32(li)
	}
	defer func() {
		for _, r := range ext {
			local[r] = -1
		}
	}()
	s.ownedLocal = make([]int32, len(owned))
	for t, r := range owned {
		s.ownedLocal[t] = local[r]
	}
	// Extract the local pattern: rows and columns restricted to
	// Extended, within the bound of the rows' full length. Local
	// numbering is monotone in the global one, so each extracted row
	// comes out sorted.
	bound := 0
	for _, r := range ext {
		bound += int(a.RowPtr[r+1] - a.RowPtr[r])
	}
	cols, src := make([]int32, bound), make([]int32, bound)
	loc := &sparse.BCSR{NB: len(ext), B: a.B, RowPtr: make([]int32, len(ext)+1)}
	n := 0
	for li, r := range ext {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if lj := local[a.ColIdx[k]]; lj >= 0 {
				cols[n], src[n] = lj, k
				n++
			}
		}
		loc.RowPtr[li+1] = int32(n)
	}
	loc.ColIdx, s.src = cols[:n], src[:n]
	loc.Val = make([]float64, n*a.B*a.B)
	s.Local = loc
	s.refill(a)
	var err error
	s.Factor, err = ilu.Factor(s.Local, opts.ILU)
	if err != nil {
		return nil, err
	}
	s.rhs = make([]float64, len(ext)*a.B)
	s.sol = make([]float64, len(ext)*a.B)
	return s, nil
}

// refill copies the subdomain's blocks of a into Local.
func (s *Subdomain) refill(a *sparse.BCSR) {
	bb := s.Local.B * s.Local.B
	for k, g := range s.src {
		copy(s.Local.Val[k*bb:k*bb+bb], a.Val[int(g)*bb:int(g)*bb+bb])
	}
}

// refillBytes is the copy traffic of filling the local matrices from
// the global one (New's extraction or Refresh): each local block read
// and written once, plus its 4-byte source index.
func (p *Preconditioner) refillBytes() int64 {
	var n int64
	for _, s := range p.Subs {
		if s != nil {
			n += int64(len(s.src))
		}
	}
	return n * int64(16*p.B*p.B+4)
}

// samePattern reports whether a has the block pattern p was built on.
func (p *Preconditioner) samePattern(a *sparse.BCSR) bool {
	return a.NB == p.NB && a.B == p.B && slices.Equal(a.RowPtr, p.rowPtr) && slices.Equal(a.ColIdx, p.colIdx)
}

// Refresh refills p in place from new values of its block pattern:
// every subdomain's local matrix is recopied from a and refactored on
// its existing symbolic structure. The result is bitwise identical to
// New(a, ...) with p's partition and options. A matrix with a
// different pattern returns ErrPatternChanged and leaves p untouched;
// after any other error p is unusable until a Refresh succeeds.
func (p *Preconditioner) Refresh(a *sparse.BCSR) error {
	if !p.samePattern(a) {
		return ErrPatternChanged
	}
	sp := prof.Begin(prof.PhasePCSetup)
	defer sp.End(0, p.refillBytes()) // refill copies; the factorizations report their own work
	for q, s := range p.Subs {
		s.refill(a) //lint:bce-ok the inlined refill gathers through the extraction map; the source offset is data-dependent
		if err := s.Factor.Refactor(s.Local); err != nil {
			return fmt.Errorf("schwarz: subdomain %d: %w", q, err) //lint:escape-ok error exit: boxes the subdomain index once, when the refresh fails
		}
	}
	return nil
}

// applyCopyBytes is the restrict/prolong copy traffic of one
// preconditioner application: 32 bytes per owned scalar (zero-fill and
// accumulate of z, gather of r into the subdomain workspaces).
func (p *Preconditioner) applyCopyBytes() int64 { return int64(32 * p.NB * p.B) }

// Apply implements krylov.Preconditioner: z = M⁻¹ r via independent
// subdomain solves, restricted prolongation (owned unknowns only).
func (p *Preconditioner) Apply(r, z []float64) {
	sp := prof.Begin(prof.PhasePCApply)
	// Restrict/prolong copy traffic; the triangular solves inside report
	// their own flops and bytes.
	defer sp.End(0, p.applyCopyBytes())
	zs := z[:p.NB*p.B]
	for i := range zs {
		zs[i] = 0
	}
	for _, s := range p.Subs {
		p.ApplySubdomain(s, r, z)
	}
}

// ApplySubdomain performs one subdomain's restrict-solve-prolong. It is
// exposed so the virtual machine can account each subdomain's work to
// its rank; subdomains touch disjoint owned entries of z, so concurrent
// calls on distinct subdomains are safe when z is shared.
func (p *Preconditioner) ApplySubdomain(s *Subdomain, r, z []float64) {
	b := p.B
	for li, gr := range s.Extended {
		copy(s.rhs[li*b:li*b+b], r[int(gr)*b:int(gr)*b+b]) //lint:bce-ok restrict gathers through the subdomain row list; both offsets are data-dependent
	}
	s.Factor.SolvePar(p.Opts.Pool, s.rhs, s.sol)
	ownedLocal := s.ownedLocal[:len(s.Owned)] // bce: ties the index map to the owned list
	for t, gr := range s.Owned {
		li := ownedLocal[t]
		copy(z[int(gr)*b:int(gr)*b+b], s.sol[int(li)*b:int(li)*b+b]) //lint:bce-ok prolong scatters through the owned row list and local index map; both offsets are data-dependent
	}
}

// GhostRows returns the number of non-owned block rows a subdomain reads
// (its overlap region) — communication volume for the cost model.
func (s *Subdomain) GhostRows() int { return len(s.Extended) - len(s.Owned) }

// SolveFlops returns the floating-point work of one subdomain apply.
func (s *Subdomain) SolveFlops() int64 { return s.Factor.SolveFlops() }

// SolveBytes returns the memory traffic of one subdomain apply.
func (s *Subdomain) SolveBytes() int64 { return s.Factor.SolveBytes() }

// FactorBlocks returns the number of stored blocks across all subdomain
// factors (the preconditioner's memory footprint).
func (p *Preconditioner) FactorBlocks() int {
	n := 0
	for _, s := range p.Subs {
		n += s.Factor.NNZBlocks()
	}
	return n
}
