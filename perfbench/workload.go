package main

import (
	"fmt"
	"math/rand"

	"petscfun3d/internal/core"
	"petscfun3d/internal/dist"
	"petscfun3d/internal/ilu"
)

// workload is one canonical steady-state solve: first-order
// incompressible flow over the wing, converged to ‖f‖/‖f0‖ ≤ 1e-8 from
// the freestream state. Every workload uses at most two threads or ranks.
type workload struct {
	name string
	// base is the wing lattice (nx, ny, nz) the seed's lattice stays near.
	base [3]int
	// configure sets the solver knobs on a default configuration. With
	// Ranks > 1 the solve runs dist.NewtonSolve on that many mpi ranks;
	// otherwise newton.Solver runs in the calling goroutine.
	configure func(cfg *core.Config)
}

var workloads = []workload{
	{
		// The paper's matrix-free ψNKS on one thread: flux sweeps and
		// triangular solves dominate, preconditioner setup is ~13%.
		name: "matfree-lagged", base: [3]int{32, 22, 17},
		configure: func(cfg *core.Config) {
			cfg.Threads = 1
			cfg.Newton.JacobianLag = 5
			cfg.Newton.Krylov.Orthogonalization = "mgs"
		},
	},
	{
		// Assembled first-order operator on two pool threads, ILU(1)
		// refactored every step: preconditioner setup is most of the
		// solve, flux evaluation almost none of it.
		name: "assembled-refresh", base: [3]int{28, 19, 15},
		configure: func(cfg *core.Config) {
			cfg.Threads = 2
			cfg.FillLevel = 1
			cfg.Newton.AssembledOperator = true
			cfg.Newton.JacobianLag = 1
			cfg.Newton.Krylov.Orthogonalization = "cgs"
		},
	},
	{
		// dist.NewtonSolve on two ranks with overlapped halos, a KWay
		// partition and block-Jacobi ILU(0): the only path through
		// internal/dist and internal/mpi.
		name: "dist-2rank", base: [3]int{32, 22, 17},
		configure: func(cfg *core.Config) {
			cfg.Threads = 1
			cfg.Ranks = 2
			cfg.Partitioner = "kway"
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// lattice returns the wing lattice the seed picks: the base lattice, or
// the base with one chordwise line moved to the spanwise direction
// (nx-1, ny+1), which keeps the vertex count within 2%. The two
// converge in the same number of Newton steps; wider moves do not
// (dist-2rank takes 12 steps instead of 11 at 33×22×17 and at nz=16,
// matfree-lagged 10 at 30×22×17).
func (w workload) lattice(seed int64) (nx, ny, nz int) {
	d := w.base
	if rand.New(rand.NewSource(seed)).Intn(2) == 1 {
		d[0]--
		d[1]++
	}
	return d[0], d[1], d[2]
}

// config returns the core configuration the program receives for this
// workload on an nx×ny×nz lattice.
func (w workload) config(nx, ny, nz int) core.Config {
	cfg := core.DefaultConfig()
	cfg.NX, cfg.NY, cfg.NZ = nx, ny, nz
	cfg.Newton.RelTol = 1e-8
	w.configure(&cfg)
	return cfg
}

// distOptions returns the distributed Newton options matching cfg.
func distOptions(cfg core.Config) dist.NewtonOptions {
	opts := dist.DefaultNewtonOptions()
	opts.RelTol = cfg.Newton.RelTol
	opts.Threads = cfg.Threads
	opts.ILU = ilu.Options{Level: cfg.FillLevel}
	return opts
}
