// Package krylov implements restarted GMRES(m) with right
// preconditioning — the linear solver inside every Newton step. One
// body serves both drivers: Solve runs it over par reductions on one
// node, dist.GMRES over a distributed matrix's collectives (System).
// It has four orthogonalization mechanisms: modified Gram-Schmidt
// ("mgs", default), fused classical ("cgs"), classical with selective
// reorthogonalization ("cgs2"), and the distributed entry's one-round
// oblique classical Gram-Schmidt (SolveOneRound), which no option
// string selects. Assembled and matrix-free operators both plug in.
package krylov

import (
	"errors"
	"fmt"
	"math"

	"petscfun3d/internal/par"
	"petscfun3d/internal/prof"
)

// Operator applies a linear map y = A x.
type Operator interface {
	Apply(x, y []float64)
}

// Preconditioner applies z = M⁻¹ r.
type Preconditioner interface {
	Apply(r, z []float64)
}

// OperatorFunc adapts a function to Operator.
type OperatorFunc func(x, y []float64)

// Apply implements Operator.
func (f OperatorFunc) Apply(x, y []float64) { f(x, y) }

// PrecondFunc adapts a function to Preconditioner.
type PrecondFunc func(r, z []float64)

// Apply implements Preconditioner.
func (f PrecondFunc) Apply(r, z []float64) { f(r, z) }

// Identity is the no-op preconditioner.
type Identity struct{}

// Apply implements Preconditioner.
func (Identity) Apply(r, z []float64) { copy(z, r) }

// Options configures a GMRES solve.
type Options struct {
	// Restart is the Krylov subspace dimension m of GMRES(m). The paper
	// uses 10-30 (GMRES(20) for Table 4).
	Restart int
	// MaxIters caps the total iterations across restarts (10 for the
	// smallest problems to 80 for the largest, per the paper).
	MaxIters int
	// RelTol is the relative residual convergence tolerance (the paper's
	// inner tolerance: 0.001-0.01).
	RelTol float64
	// AbsTol is the absolute residual tolerance.
	AbsTol float64
	// Orthogonalization selects the Gram-Schmidt variant: "mgs"
	// (modified, default — j+1 sequential inner products per iteration,
	// 2j+3 pool barriers), "cgs" (classical — all j+1 products from one
	// fused par.MDot pass over w and all subtractions from one par.MAxpy
	// sweep: 3 barriers and ~2.5× less memory traffic per iteration;
	// slightly less stable), or "cgs2" (classical with one selective
	// DGKS reorthogonalization pass — the pre-projection ‖w‖² rides the
	// same fused pass, and a second MDot/MAxpy round runs only when the
	// projection cancelled more than half of w's mass; CGS speed with
	// MGS-class orthogonality). The paper lists the orthogonalization
	// mechanism among the Krylov tunables.
	Orthogonalization string
	// Pool is the node-level worker pool for the solver's vector
	// reductions and updates (dot, norm, axpy). The reductions use a
	// fixed-shape segmented accumulation, so residual histories are
	// bitwise identical at every worker count; nil runs sequentially.
	Pool *par.Pool
}

// DefaultOptions mirror the paper's customary settings.
func DefaultOptions() Options {
	return Options{Restart: 20, MaxIters: 80, RelTol: 1e-2, AbsTol: 1e-30}
}

// Stats reports the work performed by a solve, the inputs of the
// parallel-cost model (each iteration costs one operator apply, one
// preconditioner apply, and ~m/2 inner products for orthogonalization).
// InnerProds counts n-length dot products computed; Reductions counts
// synchronizing reduction rounds (pool barriers here, global reductions
// in a distributed run), residual norms included — "mgs" pays one round
// per product where the fused mechanisms batch a whole column into one,
// which is exactly the distinction the parallel-cost model's reduction
// term needs.
type Stats struct {
	Iterations   int
	MatVecs      int
	PrecondApps  int
	InnerProds   int
	Reductions   int
	Restarts     int
	Converged    bool
	InitialNorm  float64
	ResidualNorm float64
}

// ErrNonFinite reports a NaN or Inf (re)start residual norm or Arnoldi
// residual estimate. Both are globally reduced, so every rank of a
// distributed solve returns it at the same iteration.
var ErrNonFinite = errors.New("krylov: non-finite residual")

// System is what the GMRES body needs from the layer its vectors live
// on: the operator and the global reductions (local vector updates run
// on Options.Pool). A distributed matrix supplies collectives whose
// results are identical on every rank, so all ranks branch alike.
type System interface {
	// Apply computes y = A x; an error aborts the solve.
	Apply(x, y []float64) error
	// Norm2 returns the global Euclidean norm of x.
	Norm2(x []float64) float64
	// MDot fills out[i] with the global inner product x·vs[i] in one
	// reduction round.
	MDot(x []float64, vs [][]float64, out []float64)
	// OrthoReduce is the one round of the one-round mechanism:
	// out[i] = w·vs[i] for every batch vector and out[len(vs)] = ‖vj‖².
	OrthoReduce(w []float64, vs [][]float64, vj, out []float64)
	// Prof is the profiler the solve's spans open on.
	Prof() *prof.Profiler
}

// ortho selects the Gram-Schmidt mechanism of one solve.
type ortho int

const (
	orthoMGS ortho = iota
	orthoCGS
	orthoCGS2
	orthoOneRound
)

// mechanisms maps the Options.Orthogonalization values to mechanisms.
var mechanisms = map[string]ortho{"": orthoMGS, "mgs": orthoMGS, "cgs": orthoCGS, "cgs2": orthoCGS2}

// local is Solve's System: par reductions over one node's pool, the
// operator timed as the matvec span on prof.Default.
type local struct {
	a    Operator
	pool *par.Pool
}

func (s local) Apply(x, y []float64) error {
	sp := prof.Begin(prof.PhaseMatVec)
	s.a.Apply(x, y)
	sp.End(0, 0) // the operator's own phases (e.g. flux) carry the work
	return nil
}

func (s local) Norm2(x []float64) float64                       { return par.Norm2(s.pool, x) }
func (s local) MDot(x []float64, vs [][]float64, out []float64) { par.MDot(s.pool, x, vs, out) }
func (local) Prof() *prof.Profiler                              { return prof.Default }

func (s local) OrthoReduce(w []float64, vs [][]float64, vj, out []float64) {
	par.MDot(s.pool, w, vs, out)
	out[len(vs)] = par.Dot(s.pool, vj, vj)
}

// Solve runs right-preconditioned GMRES(m) on A x = b, updating x in
// place (its incoming value is the initial guess). Returns solve
// statistics; an error for malformed inputs or ErrNonFinite.
func Solve(a Operator, m Preconditioner, b, x []float64, opts Options) (Stats, error) {
	mech, ok := mechanisms[opts.Orthogonalization]
	if !ok {
		return Stats{}, fmt.Errorf("krylov: unknown orthogonalization %q", opts.Orthogonalization)
	}
	return solve(local{a, opts.Pool}, m, b, x, opts, mech)
}

// SolveOneRound runs the same body over sys with one-pass oblique
// classical Gram-Schmidt — every scalar an iteration needs arrives from
// ONE System.OrthoReduce round, where mgs pays j+2 at step j. It is
// dist.GMRES's mechanism; opts.Orthogonalization is ignored.
func SolveOneRound(sys System, m Preconditioner, b, x []float64, opts Options) (Stats, error) {
	return solve(sys, m, b, x, opts, orthoOneRound)
}

// checkFinite wraps ErrNonFinite with the offending value and the
// iteration it appeared at, or returns nil for a finite v.
func checkFinite(what string, v float64, iter int) error {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		return nil
	}
	return fmt.Errorf("%w: %s %g at iteration %d", ErrNonFinite, what, v, iter)
}

func solve(sys System, m Preconditioner, b, x []float64, opts Options, mech ortho) (Stats, error) {
	n := len(b)
	if len(x) != n {
		return Stats{}, fmt.Errorf("krylov: len(x)=%d, len(b)=%d", len(x), n)
	}
	if opts.Restart < 1 || opts.MaxIters < 1 {
		return Stats{}, fmt.Errorf("krylov: need positive Restart and MaxIters")
	}
	if m == nil {
		m = Identity{}
	}
	pr := sys.Prof()
	ksp := pr.Begin(prof.PhaseKrylov)
	defer ksp.End(0, 0)
	mr := opts.Restart
	var st Stats

	// Krylov basis and Hessenberg factorization workspace. One contiguous
	// slab per matrix keeps the setup allocations out of the fill loops
	// (no per-row make escaping from a hot-kernel loop) and the basis
	// rows adjacent in memory.
	v := make([][]float64, mr+1)
	vbuf := make([]float64, (mr+1)*n)
	for i := range v {
		v[i] = vbuf[i*n : (i+1)*n] //lint:bce-ok slab carve-up at solve setup runs mr+1 times per solve, not per sweep iteration; prove cannot reason about the i*n products
	}
	h := make([][]float64, mr+1) // h[i][j], i row (0..mr), j col (0..mr-1)
	hbuf := make([]float64, (mr+1)*mr)
	for i := range h {
		h[i] = hbuf[i*mr : (i+1)*mr] //lint:bce-ok slab carve-up at solve setup runs mr+1 times per solve, not per sweep iteration; prove cannot reason about the i*mr products
	}
	cs := make([]float64, mr)
	sn := make([]float64, mr)
	g := make([]float64, mr+1)
	y := make([]float64, mr)
	z := make([]float64, n)
	w := make([]float64, n)
	r := make([]float64, n)
	// Fused-orthogonalization workspace: one Hessenberg column of batched
	// dot results plus the ‖w‖² and ‖v_j‖² slots, the negated
	// coefficients MAxpy subtracts with, and the batch's vector list.
	hcol := make([]float64, mr+3)
	hneg := make([]float64, mr+1)
	vlist := make([][]float64, mr+2)
	// vnrm[i] is the one-round mechanism's measured ‖v_i‖²: v_{j+1} is
	// normalized by a norm DERIVED from the batch, so the next round
	// measures it and the projection divides by it — otherwise the
	// normalization error would grow geometrically through the derived
	// norm.
	vnrm := make([]float64, mr+1)

	var target float64
	bs := b[:len(r)] // bce: ties len(bs) to len(r); the range index serves both unchecked
	for st.Iterations < opts.MaxIters {
		// Start (re)cycle: r = b − A x and its norm, one reduction round.
		if err := sys.Apply(x, r); err != nil {
			return st, err
		}
		st.MatVecs++
		for i := range r {
			r[i] = bs[i] - r[i]
		}
		beta := sys.Norm2(r)
		st.InnerProds++
		st.Reductions++
		if err := checkFinite("residual norm", beta, st.Iterations); err != nil {
			return st, err
		}
		if st.Iterations == 0 {
			st.InitialNorm = beta
			target = max(opts.RelTol*beta, opts.AbsTol)
		} else {
			st.Restarts++
		}
		st.ResidualNorm = beta
		if beta <= target {
			st.Converged = true
			return st, nil
		}
		inv := 1 / beta
		v0 := v[0][:len(r)] // bce: ties len(v0) to len(r); the range index serves both unchecked
		for i := range r {
			v0[i] = r[i] * inv
		}
		clear(g)
		g[0] = beta

		j := 0
		for ; j < mr && st.Iterations < opts.MaxIters; j++ {
			st.Iterations++
			// w = A M^{-1} v_j.
			m.Apply(v[j], z)
			st.PrecondApps++
			if err := sys.Apply(z, w); err != nil {
				return st, err
			}
			st.MatVecs++
			osp := pr.Begin(prof.PhaseOrtho)
			pr.NoteThreads(prof.PhaseOrtho, opts.Pool.Workers())
			var wwPre float64
			switch mech {
			case orthoMGS:
				// Modified Gram-Schmidt: one reduction round per basis
				// vector, w streamed 2(j+1) times.
				one, h0 := vlist[:1], hcol[:1]
				for i, vi := range v[:j+1] {
					one[0] = vi
					sys.MDot(w, one, h0)
					hij := h0[0]
					h[i][j] = hij //lint:bce-ok one O(1) Hessenberg store per O(n) projection sweep; the row lengths are not provable
					st.InnerProds++
					st.Reductions++
					par.Axpy(opts.Pool, -hij, vi, w)
				}
			case orthoCGS:
				// Classical Gram-Schmidt on the fused kernels: all j+1
				// projections from ONE pass over w (one batched reduction
				// round), then one fused subtraction sweep. Same dots,
				// same segmented partials as the per-vector path —
				// bitwise identical to it — but w streams once per pass.
				sys.MDot(w, v[:j+1], hcol)
				st.InnerProds += j + 1
				st.Reductions++
			case orthoCGS2, orthoOneRound:
				// The pre-projection ‖w‖² rides the same round (w itself
				// is the last vector of the batch): cgs2's
				// reorthogonalization decision below and the one-round
				// derived norm cost no extra round. The one-round batch
				// also carries the measured ‖v_j‖².
				vl := vlist[:j+2]
				copy(vl, v[:j+1])
				vl[j+1] = w
				if mech == orthoCGS2 {
					sys.MDot(w, vl, hcol)
					st.InnerProds += j + 2
				} else {
					sys.OrthoReduce(w, vl, v[j], hcol)
					st.InnerProds += j + 3
					vnrm[j] = hcol[j+2]
				}
				st.Reductions++
				wwPre = hcol[j+1]
			}
			if mech != orthoMGS {
				// One fused subtraction sweep. The one-round mechanism
				// projects against the MEASURED basis norms and derives
				// ‖w − Vh‖² = ‖w‖² − Σ hᵢ·(w·vᵢ) from the same batch.
				t := wwPre
				hc := hcol[:j+1]
				hn := hneg[:len(hc)] // bce: ties len(hn) to len(hc); the range index serves both unchecked
				for i, hij := range hc {
					if mech == orthoOneRound {
						di := hij
						hij /= vnrm[i]
						t -= hij * di
					}
					h[i][j] = hij //lint:bce-ok one O(1) Hessenberg store per O(n) projection sweep; the row lengths are not provable
					hn[i] = -hij
				}
				par.MAxpy(opts.Pool, hneg, v[:j+1], w)
				if mech == orthoOneRound {
					// Identical on every rank; the clamp covers
					// cancellation at breakdown.
					if t < 0 {
						t = 0
					}
					h[j+1][j] = math.Sqrt(t)
				}
			}
			if mech != orthoOneRound {
				h[j+1][j] = sys.Norm2(w)
				st.InnerProds++
				st.Reductions++
			}
			// The projection cancelled more than half of w's mass
			// (‖w_after‖ < ‖w_before‖/√2, the DGKS criterion): one full
			// second Gram-Schmidt pass against the basis, corrections
			// folded into the Hessenberg column.
			reorth := mech == orthoCGS2 && h[j+1][j]*h[j+1][j] < 0.5*wwPre
			if reorth {
				sys.MDot(w, v[:j+1], hcol)
				st.InnerProds += j + 1
				st.Reductions++
				hc := hcol[:j+1]
				hn := hneg[:len(hc)] // bce: ties len(hn) to len(hc); the range index serves both unchecked
				for i, cij := range hc {
					h[i][j] += cij //lint:bce-ok one O(1) Hessenberg update per O(n) correction sweep; the row lengths are not provable
					hn[i] = -cij
				}
				par.MAxpy(opts.Pool, hneg, v[:j+1], w)
				h[j+1][j] = sys.Norm2(w)
				st.InnerProds++
				st.Reductions++
			}
			if h[j+1][j] > 1e-300 {
				inv := 1 / h[j+1][j]
				vj := v[j+1][:len(w)] // bce: ties len(vj) to len(w); the range index serves both unchecked
				for i := range w {
					vj[i] = w[i] * inv
				}
			} else {
				clear(v[j+1]) // happy breakdown: exact solution in this subspace
			}
			// The local O(n) sweeps, charged per mechanism (the
			// one-round batch is charged to the reduce phase by the
			// System's OrthoReduce itself).
			osp.End(orthoFlopsFor(mech, j, n, reorth), orthoBytesFor(mech, j, n, reorth))
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < j; i++ {
				t := cs[i]*h[i][j] + sn[i]*h[i+1][j] //lint:bce-ok O(restart) Givens update down the Hessenberg column; row lengths are not provable and the loop is negligible next to the n-length sweeps
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = t //lint:bce-ok O(restart) Givens update down the Hessenberg column; row lengths are not provable and the loop is negligible next to the n-length sweeps
			}
			// New rotation to zero h[j+1][j].
			denom := math.Hypot(h[j][j], h[j+1][j])
			if denom < 1e-300 {
				cs[j], sn[j] = 1, 0
			} else {
				cs[j] = h[j][j] / denom
				sn[j] = h[j+1][j] / denom
			}
			h[j][j] = cs[j]*h[j][j] + sn[j]*h[j+1][j]
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			st.ResidualNorm = math.Abs(g[j+1])
			if err := checkFinite("Arnoldi residual estimate", st.ResidualNorm, st.Iterations); err != nil {
				return st, err
			}
			if st.ResidualNorm <= target {
				j++
				break
			}
		}
		// Solve the j×j triangular system into the preallocated y (every
		// entry of y[:j] is overwritten) and update x += M^{-1} V y.
		yj := y[:j] // bce: j never exceeds mr; one check here serves the back-substitution loops
		for i := j - 1; i >= 0; i-- {
			s := g[i]
			hi := h[i][:j] // bce: ties the row extent to j; prove then erases both checks in the k loop
			for k := i + 1; k < j; k++ {
				s -= hi[k] * yj[k]
			}
			if math.Abs(h[i][i]) < 1e-300 {
				y[i] = 0
			} else {
				y[i] = s / h[i][i]
			}
		}
		clear(z)
		// z = V y in one fused read-modify-write sweep (bitwise identical
		// to the per-vector Axpy sequence, one barrier instead of j).
		par.MAxpy(opts.Pool, yj, v[:j], z)
		m.Apply(z, w)
		st.PrecondApps++
		par.Axpy(opts.Pool, 1, w, x)
		if st.ResidualNorm <= target {
			st.Converged = true
			return st, nil
		}
	}
	return st, nil
}
