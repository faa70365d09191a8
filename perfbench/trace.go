package main

import (
	"time"

	"petscfun3d/internal/core"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/schwarz"
	"petscfun3d/internal/sparse"
)

// clock accumulates the wall time, call count and formula-charged work
// (bytes or flops) of one layer's calls, timed from the caller's side.
type clock struct {
	seconds float64
	calls   int
	work    float64
}

func (c *clock) add(start time.Time, work int64) {
	c.seconds += time.Since(start).Seconds()
	c.calls++
	c.work += float64(work)
}

// rate returns work per second in units of 1e9, or 0 for an idle layer.
func (c *clock) rate() float64 {
	if c.seconds == 0 {
		return 0
	}
	return c.work / c.seconds / 1e9
}

// seqTrace times the layers of one sequential solve through the public
// attachment points newton.Solver already has: the PCFactory (Schwarz
// extraction + ILU factorization), and the operator and preconditioner
// wrappers of newton.Hooks. The program itself gains no spans.
type seqTrace struct {
	setup clock // schwarz.New; work = Σ Factorization.FactorBytes
	apply clock // preconditioner applies; work = Σ Factorization.SolveBytes
	jv    clock // matrix-free Jacobian-vector products; work = SweepFlops
	spmv  clock // assembled-operator products; work = BCSR.MulVecBytes
}

// instrument returns the hooks and the wrapped preconditioner factory
// for one solve of p.
func (t *seqTrace) instrument(p *core.Problem, pc newton.PCFactory) (*newton.Hooks, newton.PCFactory) {
	factory := func(a *sparse.BCSR) (krylov.Preconditioner, error) {
		start := time.Now()
		m, err := pc(a)
		t.setup.add(start, factorBytes(m))
		return m, err
	}
	opClock, opWork := &t.jv, p.Disc.SweepFlops()
	if p.Cfg.Newton.AssembledOperator {
		opClock, opWork = &t.spmv, p.Disc.JacobianPattern().MulVecBytes()
	}
	hooks := &newton.Hooks{
		WrapOperator: func(op krylov.Operator) krylov.Operator {
			return krylov.OperatorFunc(func(x, y []float64) {
				start := time.Now()
				op.Apply(x, y)
				opClock.add(start, opWork)
			})
		},
		WrapPreconditioner: func(m krylov.Preconditioner) krylov.Preconditioner {
			bytes := solveBytes(m)
			return krylov.PrecondFunc(func(r, z []float64) {
				start := time.Now()
				m.Apply(r, z)
				t.apply.add(start, bytes)
			})
		},
	}
	return hooks, factory
}

// factorBytes is the ILU factorization traffic the layer's public
// formula charges for a Schwarz preconditioner's subdomain factors.
func factorBytes(m krylov.Preconditioner) int64 {
	s, ok := m.(*schwarz.Preconditioner)
	if !ok {
		return 0
	}
	var n int64
	for _, sub := range s.Subs {
		n += sub.Factor.FactorBytes()
	}
	return n
}

// solveBytes is the triangular-solve traffic of one Schwarz apply.
func solveBytes(m krylov.Preconditioner) int64 {
	s, ok := m.(*schwarz.Preconditioner)
	if !ok {
		return 0
	}
	var n int64
	for _, sub := range s.Subs {
		n += sub.SolveBytes()
	}
	return n
}
