// Package dist implements a genuinely distributed sparse solver on the
// goroutine message-passing runtime (internal/mpi): partitioned block
// matrices with ghost-column halos, distributed vector operations with
// global reductions, and a distributed right-preconditioned GMRES with
// block Jacobi ILU(k) subdomain solves. It executes the same
// decomposed algorithm that internal/core models on the virtual
// machine, and the tests validate it against the sequential solver —
// closing the loop on the "MPI substrate" substitution.
package dist

import (
	"fmt"
	"math"
	"sort"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// Matrix is one rank's share of a partitioned BCSR matrix: the owned
// block rows, with column indices renumbered into local-extended space
// (owned rows first in ascending global order, then ghosts in ascending
// global order).
type Matrix struct {
	Comm *mpi.Comm
	B    int

	Owned  []int32 // ascending global block rows owned by this rank
	Ghosts []int32 // ascending global block rows read but not owned

	local *sparse.BCSR // NB = len(Owned), cols in extended numbering

	// Interior/boundary row split, fixed at plan time: interior rows
	// reference only owned columns, so they can be computed while the
	// ghost exchange is in flight; boundary rows need ghost values and
	// run after it. innerNNZB/bndNNZB count each set's stored blocks
	// (they sum to the local matrix's total, so the split's flop
	// accounting matches one full MulVec exactly).
	interior  []int32
	boundary  []int32
	innerNNZB int
	bndNNZB   int

	// Halo exchange plan with persistent staging buffers.
	halo *Halo

	// extBuf is the persistent extended vector (owned prefix + ghost
	// tail) reused by every MulVec — the hot path must not allocate.
	extBuf []float64

	// NoOverlap selects the pre-overlap blocking scatter (one
	// PhaseScatter span folding the synchronization wait into the
	// exchange) instead of the default overlapped path. The two paths
	// are bitwise identical; the blocking one exists as the measured
	// baseline the paper's Table 3 analysis starts from.
	NoOverlap bool

	// Diagonal block (owned x owned) for the block Jacobi factorization.
	diag *sparse.BCSR

	// Node-level worker pool (SetPool) with precomputed
	// nonzero-balanced stripe bounds for the interior/boundary row sets
	// and the reusable SpMV task.
	pool                 *par.Pool
	intBounds, bndBounds []int32
	rowsT                rowsTask

	// Prof, when non-nil, receives this rank's measured phase timings
	// (scatter, matvec, reduce, tri_solve). Each rank runs on its own
	// goroutine, so each rank must have its own profiler; merge them
	// with prof.Merge after mpi.Run returns. The process-wide
	// prof.Default is NOT used here — it assumes single-goroutine
	// nesting.
	Prof *prof.Profiler
}

// NewMatrix extracts rank c.Rank()'s share of the global matrix a under
// the block-row partition part (len a.NB). Every rank calls it with the
// same a and part (SPMD); the halo plan is negotiated over the
// communicator.
func NewMatrix(c *mpi.Comm, a *sparse.BCSR, part []int32) (*Matrix, error) {
	if len(part) != a.NB {
		return nil, fmt.Errorf("dist: partition length %d for %d block rows", len(part), a.NB)
	}
	me := int32(c.Rank())
	// Validate every rank's ownership locally (the partition is SPMD
	// data), so all ranks reject a bad partition before any
	// communication — a rank erroring mid-handshake would deadlock its
	// peers.
	counts := make([]int, c.Size())
	for i, q := range part {
		if q < 0 || int(q) >= c.Size() {
			return nil, fmt.Errorf("dist: row %d assigned to invalid rank %d", i, q)
		}
		counts[q]++
	}
	for q, n := range counts {
		if n == 0 {
			return nil, fmt.Errorf("dist: rank %d owns no rows", q)
		}
	}
	m := &Matrix{Comm: c, B: a.B}
	for i := int32(0); i < int32(a.NB); i++ {
		if part[i] == me {
			m.Owned = append(m.Owned, i) //lint:alloc-ok one-time plan construction at partition setup
		}
	}
	ghostSet := map[int32]bool{}
	for _, gr := range m.Owned {
		for _, j := range a.ColIdx[a.RowPtr[gr]:a.RowPtr[gr+1]] {
			if part[j] != me {
				ghostSet[j] = true
			}
		}
	}
	for g := range ghostSet {
		m.Ghosts = append(m.Ghosts, g) //lint:alloc-ok one-time plan construction at partition setup
	}
	sort.Slice(m.Ghosts, func(i, j int) bool { return m.Ghosts[i] < m.Ghosts[j] })

	// Extended-local numbering.
	ext := make(map[int32]int32, len(m.Owned)+len(m.Ghosts))
	for li, gr := range m.Owned {
		ext[gr] = int32(li)
	}
	for li, gr := range m.Ghosts {
		ext[gr] = int32(len(m.Owned) + li)
	}
	// Local rows (owned rows, all columns) and the diagonal block
	// (owned columns only).
	rows := make([][]int32, len(m.Owned))
	diagRows := make([][]int32, len(m.Owned))
	for li, gr := range m.Owned {
		for _, j := range a.ColIdx[a.RowPtr[gr]:a.RowPtr[gr+1]] {
			rows[li] = append(rows[li], ext[j]) //lint:alloc-ok one-time plan construction at partition setup
			if part[j] == me {
				diagRows[li] = append(diagRows[li], ext[j]) //lint:alloc-ok one-time plan construction at partition setup
			}
		}
	}
	m.local = sparse.NewBCSRPattern(len(m.Owned), a.B, rows)
	m.diag = sparse.NewBCSRPattern(len(m.Owned), a.B, diagRows)
	bb := a.B * a.B
	for li, gr := range m.Owned {
		for k := a.RowPtr[gr]; k < a.RowPtr[gr+1]; k++ {
			j := a.ColIdx[k]
			src := a.Val[int(k)*bb : (int(k)+1)*bb]
			dst, ok := m.local.BlockAt(li, int(ext[j]))
			if !ok {
				return nil, fmt.Errorf("dist: lost local block")
			}
			copy(dst, src)
			if part[j] == me {
				d, ok := m.diag.BlockAt(li, int(ext[j]))
				if !ok {
					return nil, fmt.Errorf("dist: lost diagonal block")
				}
				copy(d, src)
			}
		}
	}
	// Interior/boundary split: a row whose columns are all owned
	// (extended-local index below len(Owned)) never reads the ghost
	// tail, so it can be computed while the exchange is in flight.
	nOwned := int32(len(m.Owned))
	for li := 0; li < m.local.NB; li++ {
		inner := true
		for _, j := range m.local.ColIdx[m.local.RowPtr[li]:m.local.RowPtr[li+1]] {
			if j >= nOwned {
				inner = false
				break
			}
		}
		nnzb := int(m.local.RowPtr[li+1] - m.local.RowPtr[li])
		if inner {
			m.interior = append(m.interior, int32(li)) //lint:alloc-ok one-time plan construction at partition setup
			m.innerNNZB += nnzb
		} else {
			m.boundary = append(m.boundary, int32(li)) //lint:alloc-ok one-time plan construction at partition setup
			m.bndNNZB += nnzb
		}
	}
	m.extBuf = make([]float64, (len(m.Owned)+len(m.Ghosts))*a.B)
	// Halo negotiation: send each rank the list of its rows we need,
	// then translate both directions into extended-local numbering.
	needFrom := map[int][]int32{}
	for _, g := range m.Ghosts {
		needFrom[int(part[g])] = append(needFrom[int(part[g])], g) //lint:alloc-ok one-time plan negotiation at partition setup
	}
	asked, err := negotiateHalo(c, needFrom)
	if err != nil {
		return nil, err
	}
	sendTo := map[int][]int32{}
	for q, rows := range asked {
		locs := make([]int32, len(rows)) //lint:alloc-ok one-time plan negotiation at partition setup
		for i, gr := range rows {
			li, ok := ext[gr]
			if !ok || int(li) >= len(m.Owned) {
				return nil, fmt.Errorf("dist: rank %d asked rank %d for row %d it does not own", q, me, gr)
			}
			locs[i] = li
		}
		sendTo[q] = locs
	}
	recvFrom := map[int][]int32{}
	for q, rows := range needFrom {
		if len(rows) == 0 {
			continue
		}
		locs := make([]int32, len(rows)) //lint:alloc-ok one-time plan negotiation at partition setup
		for i, gr := range rows {
			locs[i] = ext[gr]
		}
		recvFrom[q] = locs
	}
	m.halo = newHalo(c, a.B, mpi.TagHalo, sendTo, recvFrom)
	return m, nil
}

// LocalN returns the number of owned scalar unknowns.
func (m *Matrix) LocalN() int { return len(m.Owned) * m.B }

// Scatter fills the ghost region of the extended vector xExt (length
// LocalN()+len(Ghosts)*B) from the owning ranks, blocking until done;
// the owned prefix must already hold this rank's values. The wait is
// folded into the scatter phase — use the overlapped MulVec to measure
// it separately.
func (m *Matrix) Scatter(xExt []float64) error {
	return m.halo.Exchange(m.Prof, xExt)
}

// MulVec computes the owned part of y = A x, where x and y are local
// owned vectors (length LocalN()); one halo exchange per call. By
// default the exchange is overlapped with the interior rows (post,
// compute interior, wait, compute boundary — the paper's first-order
// scatter fix); NoOverlap selects the blocking baseline. Both paths
// produce bitwise-identical y: they run the same per-row kernels, and
// each row's dot product is independent of the order rows are visited.
func (m *Matrix) MulVec(x, y []float64) error {
	if m.NoOverlap {
		return m.mulVecBlocking(x, y)
	}
	sp := m.Prof.Begin(prof.PhaseMatVec)
	defer sp.End(0, 0) // the work is charged by the nested interior/boundary spans
	ext := m.extBuf
	copy(ext, x[:m.LocalN()])
	if err := m.halo.Start(m.Prof, ext); err != nil {
		return err
	}
	m.Prof.NoteThreads(prof.PhaseMatVec, m.pool.Workers())
	isp := m.Prof.Begin(prof.PhaseInterior)
	m.mulRows(m.interior, m.intBounds, ext, y)
	isp.End(sparse.MulVecRowsFlops(m.innerNNZB, m.B), sparse.MulVecRowsBytes(m.innerNNZB, len(m.interior), m.B))
	if err := m.halo.Finish(m.Prof, ext); err != nil {
		return err
	}
	bsp := m.Prof.Begin(prof.PhaseBoundary)
	m.mulRows(m.boundary, m.bndBounds, ext, y)
	bsp.End(sparse.MulVecRowsFlops(m.bndNNZB, m.B), sparse.MulVecRowsBytes(m.bndNNZB, len(m.boundary), m.B))
	return nil
}

// mulVecBlocking is the pre-overlap baseline: one blocking scatter,
// then the full local product.
func (m *Matrix) mulVecBlocking(x, y []float64) error {
	sp := m.Prof.Begin(prof.PhaseMatVec)
	defer sp.End(m.local.MulVecFlops(), m.local.MulVecBytes())
	ext := m.extBuf
	copy(ext, x[:m.LocalN()])
	if err := m.Scatter(ext); err != nil {
		return err
	}
	m.local.MulVec(ext, y)
	return nil
}

// Dot returns the global inner product of two distributed vectors. The
// whole call is charged to the reduce phase: the local products are a
// vanishing fraction of it next to the wait for the last rank.
func (m *Matrix) Dot(x, y []float64) float64 {
	n := m.LocalN()
	sp := m.Prof.Begin(prof.PhaseReduce)
	m.Prof.NoteThreads(prof.PhaseReduce, m.pool.Workers())
	defer sp.End(dotFlops(n), dotBytes(n))
	// The fixed-shape segmented local product is bitwise identical at
	// every worker count, so the global sum is too.
	s := par.Dot(m.pool, x[:n], y[:n])
	return m.Comm.AllReduceSum(s)
}

// MDot fills out[i] with the global inner product of x against every
// vector of vs — ONE fused local pass over x (par.MDot) and ONE batched
// vector AllReduce, where per-vector Dot calls would pay len(vs) global
// synchronization rounds. Both halves are deterministic (fixed-shape
// segmented local partials, rank-ordered elementwise combine), so each
// out[i] is bitwise identical to Dot(x, vs[i]). out must hold at least
// len(vs) entries; every vector of vs must span this rank's owned part.
// The whole call is charged to the reduce phase, like Dot.
func (m *Matrix) MDot(x []float64, vs [][]float64, out []float64) {
	k := len(vs)
	if k == 0 {
		return
	}
	n := m.LocalN()
	sp := m.Prof.Begin(prof.PhaseReduce)
	m.Prof.NoteThreads(prof.PhaseReduce, m.pool.Workers())
	defer sp.End(mdotFlops(k, n), mdotBytes(k, n))
	par.MDot(m.pool, x[:n], vs, out)
	m.Comm.AllReduceSumVec(out[:k], out[:k])
}

// orthoReduce is the one batched synchronization round of a fused
// Gram-Schmidt step: out[i] = global w·vs[i] for the len(vs) batch
// vectors (the basis plus w itself, for the pre-projection ‖w‖²) and
// out[len(vs)] = global ‖vj‖² — every scalar the step needs from a
// single rendezvous, where the per-vector path pays one round each.
// Deterministic like MDot; charged to the reduce phase like Dot.
func (m *Matrix) orthoReduce(w []float64, vs [][]float64, vj []float64, out []float64) {
	k := len(vs)
	n := m.LocalN()
	sp := m.Prof.Begin(prof.PhaseReduce)
	m.Prof.NoteThreads(prof.PhaseReduce, m.pool.Workers())
	defer sp.End(orthoReduceFlops(k, n), orthoReduceBytes(k, n))
	par.MDot(m.pool, w[:n], vs, out)
	out[k] = par.Dot(m.pool, vj[:n], vj[:n])
	m.Comm.AllReduceSumVec(out[:k+1], out[:k+1])
}

// Norm2 returns the global Euclidean norm.
func (m *Matrix) Norm2(x []float64) float64 { return math.Sqrt(m.Dot(x, x)) }

// GMRESOptions configures the distributed solve.
type GMRESOptions struct {
	Restart  int
	MaxIters int
	RelTol   float64
}

// GMRES runs right-preconditioned restarted GMRES on the distributed
// system A x = b: krylov.SolveOneRound over this matrix's collectives.
// b and x are this rank's owned parts; pc is the local preconditioner
// solve (e.g. from Matrix.BlockJacobi). Every rank calls it
// collectively, and all ranks see identical iteration decisions.
func GMRES(a *Matrix, pc func(r, z []float64), b, x []float64, opts GMRESOptions) (krylov.Stats, error) {
	if n := a.LocalN(); len(b) != n || len(x) != n {
		return krylov.Stats{}, fmt.Errorf("dist: local vector lengths %d/%d, want %d", len(b), len(x), n)
	}
	var m krylov.Preconditioner
	if pc != nil {
		m = krylov.PrecondFunc(pc)
	}
	return krylov.SolveOneRound(system{a}, m, b, x, krylov.Options{
		Restart: opts.Restart, MaxIters: opts.MaxIters, RelTol: opts.RelTol, Pool: a.pool,
	})
}

// system binds a Matrix to krylov.System: the overlapped MulVec and
// the matrix's collectives (Norm2 and MDot are promoted).
type system struct{ *Matrix }

func (s system) Apply(x, y []float64) error { return s.MulVec(x, y) }
func (s system) Prof() *prof.Profiler       { return s.Matrix.Prof }

func (s system) OrthoReduce(w []float64, vs [][]float64, vj, out []float64) {
	s.orthoReduce(w, vs, vj, out)
}

// BlockJacobi factors this rank's diagonal block with ILU(k) and
// returns the local preconditioner solve.
func (m *Matrix) BlockJacobi(opts ilu.Options) (func(r, z []float64), error) {
	f, err := ilu.Factor(m.diag, opts)
	if err != nil {
		return nil, err
	}
	return func(r, z []float64) {
		sp := m.Prof.Begin(prof.PhaseTriSolve)
		m.Prof.NoteThreads(prof.PhaseTriSolve, m.pool.Workers())
		f.SolvePar(m.pool, r, z)
		sp.End(f.SolveFlops(), f.SolveBytes())
	}, nil
}
