package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"petscfun3d/internal/core"
	"petscfun3d/internal/dist"
	"petscfun3d/internal/mpi"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

// solve is the outcome of one steady-state solve.
type solve struct {
	traced    bool
	seconds   float64
	steps     int
	linearIts int
	// relResidual is ‖f(q)‖/‖f(q0)‖ of the returned state, evaluated by
	// the benchmark itself, not read from the solver's result.
	relResidual float64
	// history is the sha256 of the solver's residual-norm history.
	history string
	err     error
	// allocMB and gcCycles are the runtime's allocation and GC deltas
	// across the solve.
	allocMB  float64
	gcCycles float64
}

// failed reports whether the solve errored, did not converge, or failed
// the benchmark's own residual check.
func (s solve) failed() bool {
	return s.err != nil || math.IsNaN(s.relResidual) || math.IsInf(s.relResidual, 0) || s.relResidual > relTol
}

// relTol is the steady-state criterion every workload converges to.
const relTol = 1e-8

// hashHistory returns the sha256 of a residual-norm history.
func hashHistory(norms []float64) string {
	buf := make([]byte, 8*len(norms))
	for i, v := range norms {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// solveSequential runs newton.Solver from the freestream state. A
// non-nil tr instruments the solve from outside the program.
func solveSequential(p *core.Problem, tr *seqTrace) solve {
	opts := p.Cfg.Newton
	opts.Krylov.Pool = p.Pool
	s := &newton.Solver{Disc: p.Disc, Disc2: p.Disc2, PC: p.PCFactory(nil), Opts: opts}
	if tr != nil {
		s.Hooks, s.PC = tr.instrument(p, s.PC)
	}
	q := p.Disc.FreestreamVector()
	start := time.Now()
	res, err := s.Solve(q)
	out := solve{seconds: time.Since(start).Seconds(), err: err}
	if res != nil {
		out.steps = len(res.Steps)
		out.linearIts = res.TotalLinearIts
		norms := []float64{res.InitialRnorm}
		for _, st := range res.Steps {
			norms = append(norms, st.Rnorm)
		}
		out.history = hashHistory(norms)
		if err == nil && !res.Converged {
			out.err = fmt.Errorf("not converged in %d steps", len(res.Steps))
		}
	}
	r := make([]float64, p.Disc.N())
	p.Disc.Residual(p.Disc.FreestreamVector(), r)
	f0 := sparse.Norm2(r)
	p.Disc.Residual(q, r)
	out.relResidual = sparse.Norm2(r) / f0
	return out
}

// rankTrace is what a traced distributed solve reports per rank.
type rankTrace struct {
	seconds float64
	report  prof.Report
}

// solveDistributed runs dist.NewtonSolve on p's partition, one mpi rank
// per part. solve_s is the time from starting the world to the last
// rank's return from NewtonSolve. With trace set, every rank reports to
// a profiler the benchmark owns.
func solveDistributed(p *core.Problem, trace bool) (solve, []rankTrace) {
	nr := p.Part.NParts
	opts := distOptions(p.Cfg)
	profs := make([]*prof.Profiler, nr)
	if trace {
		for i := range profs {
			profs[i] = prof.New()
			profs[i].Enable()
		}
	}
	results := make([]*dist.NewtonResult, nr)
	ends := make([]time.Time, nr)
	walls := make([]float64, nr)
	var rel float64
	start := time.Now()
	err := mpi.Run(nr, func(c *mpi.Comm) error {
		me := c.Rank()
		q := p.Disc.FreestreamVector()
		t0 := time.Now()
		res, err := dist.NewtonSolve(c, p.Disc, p.Part.Part, q, opts, profs[me])
		ends[me] = time.Now()
		walls[me] = ends[me].Sub(t0).Seconds()
		results[me] = res
		if err != nil {
			return err
		}
		// The benchmark's own residual check, through a fresh
		// distributed residual the solver never saw.
		rsd, err := dist.NewResidual(c, p.Disc, p.Part.Part)
		if err != nil {
			return err
		}
		r := make([]float64, p.Disc.N())
		q0 := p.Disc.FreestreamVector()
		if err := rsd.Eval(q0, r); err != nil {
			return err
		}
		f0 := rsd.OwnedNorm2(r)
		if err := rsd.Eval(q, r); err != nil {
			return err
		}
		if f := rsd.OwnedNorm2(r) / f0; me == 0 {
			rel = f
		}
		return nil
	})
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	out := solve{seconds: last.Sub(start).Seconds(), err: err, relResidual: math.NaN()}
	if err == nil {
		out.relResidual = rel
	}
	if res := results[0]; res != nil {
		out.steps = len(res.Steps)
		out.linearIts = res.TotalLinearIts
		out.history = hashHistory(res.ResidualHistory())
		if err == nil && !res.Converged {
			out.err = fmt.Errorf("not converged in %d steps", len(res.Steps))
		}
	}
	var ranks []rankTrace
	if trace {
		ranks = make([]rankTrace, nr)
		for i := range ranks {
			ranks[i] = rankTrace{seconds: walls[i], report: profs[i].Report(0)}
		}
	}
	return out, ranks
}
