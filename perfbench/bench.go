package main

import (
	"runtime"
	"time"

	"petscfun3d/internal/core"
	"petscfun3d/internal/euler"
	"petscfun3d/internal/mesh"
	"petscfun3d/internal/newton"
	"petscfun3d/internal/partition"
	"petscfun3d/internal/prof"
	"petscfun3d/internal/sparse"
)

const (
	// setupBatch is how many times a timed run builds the problem after
	// each solve. setup_s is the median of all builds of the run, spread
	// over its whole length, so one noisy moment on the host does not
	// decide it.
	setupBatch = 3
	// minSolves is the fewest solves a timed run measures, however
	// short -seconds is.
	minSolves = 3
	// scalingReps is how many times schwarz.New runs at each size of
	// the setup-scaling probe; each size reports its median.
	scalingReps = 3
)

// bench runs one workload's configuration on the lattice its seed chose.
type bench struct {
	cfg     core.Config
	seconds float64
}

// measured is what a run collected: every solve in order, the metric
// values, and whether the traced spans reconciled with the solve time.
type measured struct {
	solves     []solve
	values     map[string]float64
	reconciled bool
}

// build runs core.Build once and returns the problem and the build
// time. A collection first starts every build from the same heap.
func build(cfg core.Config) (*core.Problem, float64, error) {
	runtime.GC()
	start := time.Now()
	p, err := core.Build(cfg)
	return p, time.Since(start).Seconds(), err
}

// rebuild builds the problem setupBatch more times, discarding each, and
// appends the build times to setups.
func rebuild(cfg core.Config, setups []float64) ([]float64, error) {
	for i := 0; i < setupBatch; i++ {
		p, secs, err := build(cfg)
		if err != nil {
			return nil, err
		}
		p.Close()
		setups = append(setups, secs)
	}
	return setups, nil
}

// solveOnce runs one solve of p, recording the runtime's allocation and
// GC deltas across it. A collection first starts every solve from the
// same heap, so the heap peak does not depend on where the previous
// solve's garbage left the collector. With trace set it also returns
// the solve's per-layer sample and whether its spans reconcile with its
// wall time.
func (b *bench) solveOnce(p *core.Problem, trace bool) (solve, map[string]float64, bool) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s solve
	var sample map[string]float64
	reconciled := true
	switch {
	case b.cfg.Ranks > 1:
		var ranks []rankTrace
		s, ranks = solveDistributed(p, trace)
		if trace {
			sample, reconciled = distSample(s, ranks)
		}
	case trace:
		tr := &seqTrace{}
		prof.Default.Reset()
		prof.Default.Enable()
		s = solveSequential(p, tr)
		prof.Default.Disable()
		sample, reconciled = seqSample(s, tr, prof.Default.Report(0))
	default:
		s = solveSequential(p, nil)
	}
	runtime.ReadMemStats(&after)
	s.traced = trace
	s.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	s.gcCycles = float64(after.NumGC - before.NumGC)
	return s, sample, reconciled
}

// timed is a -trace 0 run: solves without instrumentation until
// -seconds have passed, each followed by setupBatch builds.
func (b *bench) timed() (measured, error) {
	p, setupS, err := build(b.cfg)
	if err != nil {
		return measured{}, err
	}
	defer p.Close()
	setups := []float64{setupS}
	out := measured{reconciled: true}
	start := time.Now()
	for len(out.solves) < minSolves || time.Since(start).Seconds() < b.seconds {
		s, _, _ := b.solveOnce(p, false)
		out.solves = append(out.solves, s)
		if setups, err = rebuild(b.cfg, setups); err != nil {
			return measured{}, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return measured{}, err
	}
	var secs, steps, its []float64
	ok := 0
	for _, s := range out.solves {
		secs = append(secs, s.seconds)
		steps = append(steps, float64(s.steps))
		its = append(its, float64(s.linearIts))
		if !s.failed() {
			ok++
		}
	}
	out.values = map[string]float64{
		"solve_s":       median(secs),
		"setup_s":       median(setups),
		"peak_rss_mb":   rss,
		"newton_steps":  median(steps),
		"linear_iters":  median(its),
		"solve_ok_frac": float64(ok) / float64(len(out.solves)),
	}
	return out, nil
}

// traced is a -trace 1 run: each constructor core.Build calls timed
// once, then pairs of one untraced and one traced solve until -seconds
// have passed, then the Schwarz setup-scaling probe. Per-layer values
// are medians over the traced solves; the tracing overhead is the
// difference of the traced and untraced medians.
func (b *bench) traced() (measured, error) {
	values := map[string]float64{}
	for _, n := range perLayer {
		values[n.name] = 0
	}
	if err := constructorSeconds(b.cfg, values); err != nil {
		return measured{}, err
	}
	p, _, err := build(b.cfg)
	if err != nil {
		return measured{}, err
	}
	defer p.Close()
	out := measured{reconciled: true, values: values}
	var plain, traced, steps, its, allocs, gcs []float64
	samples := map[string][]float64{}
	start := time.Now()
	for len(traced) == 0 || time.Since(start).Seconds() < b.seconds {
		s, _, _ := b.solveOnce(p, false)
		out.solves = append(out.solves, s)
		plain = append(plain, s.seconds)
		steps = append(steps, float64(s.steps))
		its = append(its, float64(s.linearIts))
		allocs = append(allocs, s.allocMB)
		gcs = append(gcs, s.gcCycles)

		s, sample, ok := b.solveOnce(p, true)
		out.solves = append(out.solves, s)
		traced = append(traced, s.seconds)
		out.reconciled = out.reconciled && ok
		for k, v := range sample {
			samples[k] = append(samples[k], v)
		}
	}
	for k, vs := range samples {
		values[k] = median(vs)
	}
	if n := median(steps); n > 0 {
		values["krylov.iters_per_step"] = median(its) / n
	}
	values["core.alloc_mb"] = median(allocs)
	values["core.gc_cycles"] = median(gcs)
	values["trace.overhead_s"] = median(traced) - median(plain)
	values["schwarz.setup_scaling"], err = setupScaling(b.cfg)
	if err != nil {
		return measured{}, err
	}
	return out, nil
}

// spanSlack is how far a span timed inside the program may exceed the
// hook clock that encloses it before the two are said to disagree: the
// clocks are read at different instants of each call.
const spanSlack = 1e-3

// seqSample turns one traced sequential solve into per-layer values.
// newton.self_s is the solve's wall time minus the three child layers
// timed through the hooks; it must not be negative. The hook clocks must
// also agree with prof.Default's phases in the same solve: each hook
// makes as many calls as the phase it sees, the factory and
// preconditioner wrappers enclose the PCSetup and PCApply spans, and
// GMRES's MatVec span encloses the operator wrapper. A hook that misses
// calls or a wrapper that times the wrong interval breaks one of these.
func seqSample(s solve, tr *seqTrace, rep prof.Report) (map[string]float64, bool) {
	children := tr.setup.seconds + tr.apply.seconds + tr.jv.seconds + tr.spmv.seconds
	self := s.seconds - children
	setup, apply, matvec := phase(rep, prof.PhasePCSetup), phase(rep, prof.PhasePCApply), phase(rep, prof.PhaseMatVec)
	op := tr.jv.seconds + tr.spmv.seconds
	reconciled := self >= 0 &&
		int64(tr.setup.calls) == setup.Calls && setup.CumulativeSeconds <= tr.setup.seconds+spanSlack &&
		int64(tr.apply.calls) == apply.Calls && apply.CumulativeSeconds <= tr.apply.seconds+spanSlack &&
		int64(tr.jv.calls+tr.spmv.calls) == matvec.Calls && op <= matvec.CumulativeSeconds+spanSlack
	return map[string]float64{
		"trace.solve_s":              s.seconds,
		"schwarz.setup_s":            tr.setup.seconds,
		"schwarz.setup_calls":        float64(tr.setup.calls),
		"ilu.factor_gbps_computed":   tr.setup.rate(),
		"schwarz.apply_s":            tr.apply.seconds,
		"schwarz.apply_calls":        float64(tr.apply.calls),
		"ilu.solve_gbps_computed":    tr.apply.rate(),
		"euler.jv_s":                 tr.jv.seconds,
		"euler.jv_calls":             float64(tr.jv.calls),
		"euler.flux_gflops_computed": tr.jv.rate(),
		"sparse.spmv_s":              tr.spmv.seconds,
		"sparse.spmv_calls":          float64(tr.spmv.calls),
		"sparse.spmv_gbps_computed":  tr.spmv.rate(),
		"newton.self_s":              self,
		"euler.jacobian_s":           phase(rep, prof.PhaseJacobian).CumulativeSeconds,
		"krylov.ortho_s":             phase(rep, prof.PhaseOrtho).CumulativeSeconds,
	}, reconciled
}

// distSample turns one traced distributed solve into per-layer values:
// per-rank wall time around NewtonSolve, and the maximum over ranks of
// each phase in the rank profilers. newton.self_s is the slowest rank's
// Newton-loop self time. Each rank's profiled time must fit inside its
// wall time.
func distSample(s solve, ranks []rankTrace) (map[string]float64, bool) {
	v := map[string]float64{"trace.solve_s": s.seconds}
	if len(ranks) == 0 {
		return v, false
	}
	slow, fast := 0, 0
	reconciled := true
	var triBytes, triSeconds float64
	for i, r := range ranks {
		if r.seconds > ranks[slow].seconds {
			slow = i
		}
		if r.seconds < ranks[fast].seconds {
			fast = i
		}
		if r.report.TotalSeconds > r.seconds+1e-3 {
			reconciled = false
		}
		tri := phase(r.report, prof.PhaseTriSolve)
		triBytes += float64(tri.Bytes)
		triSeconds += tri.Seconds
		maxInto(v, "dist.scatter_wait_s", phase(r.report, prof.PhaseScatterWait).Seconds)
		maxInto(v, "dist.reduce_s", phase(r.report, prof.PhaseReduce).Seconds)
		maxInto(v, "dist.tri_solve_s", tri.Seconds)
		maxInto(v, "dist.pc_setup_s", phase(r.report, prof.PhasePCSetup).CumulativeSeconds)
		maxInto(v, "euler.jacobian_s", phase(r.report, prof.PhaseJacobian).CumulativeSeconds)
		maxInto(v, "krylov.ortho_s", phase(r.report, prof.PhaseOrtho).CumulativeSeconds)
	}
	v["dist.rank_solve_s_max"] = ranks[slow].seconds
	v["dist.rank_solve_s_min"] = ranks[fast].seconds
	v["newton.self_s"] = phase(ranks[slow].report, prof.PhaseNewton).Seconds
	if triSeconds > 0 {
		v["ilu.solve_gbps_computed"] = triBytes / triSeconds / 1e9
	}
	return v, reconciled && v["newton.self_s"] >= 0
}

func maxInto(v map[string]float64, k string, x float64) {
	if x > v[k] {
		v[k] = x
	}
}

// phase returns ph's row of a profiler report (zero when it never ran).
func phase(rep prof.Report, ph prof.Phase) prof.PhaseStat {
	for _, st := range rep.Phases {
		if st.Phase == ph.String() {
			return st
		}
	}
	return prof.PhaseStat{}
}

// constructorSeconds times, once each, the constructors core.Build calls
// for cfg, in the same order and with the same arguments.
func constructorSeconds(cfg core.Config, values map[string]float64) error {
	start := time.Now()
	m, err := mesh.GenerateWing(mesh.DefaultWingSpec(cfg.NX, cfg.NY, cfg.NZ))
	if err != nil {
		return err
	}
	values["mesh.generate_s"] = time.Since(start).Seconds()
	start = time.Now()
	m = m.Renumber(mesh.RCM(m))
	values["mesh.rcm_s"] = time.Since(start).Seconds()
	start = time.Now()
	_, err = euler.NewDiscretization(m, nil, euler.NewIncompressible(), euler.Options{
		Order: cfg.Order, EdgeOrdering: cfg.EdgeOrdering, Viscosity: cfg.Viscosity,
	})
	if err != nil {
		return err
	}
	values["euler.build_s"] = time.Since(start).Seconds()
	if cfg.Ranks > 1 {
		g := sparse.Graph{NV: m.NumVertices(), XAdj: m.XAdj, Adj: m.Adj}
		start = time.Now()
		part, err := partition.KWay(g, cfg.Ranks)
		if err != nil {
			return err
		}
		partition.BuildHalos(g, part)
		values["partition.kway_s"] = time.Since(start).Seconds()
	}
	return nil
}

// setupScaling returns the ratio of schwarz.New seconds on a lattice of
// four times the vertices to those on the base lattice, both on the
// freestream Jacobians euler assembles, with the workload's partition
// and ILU options. Linear setup gives 4; hidden quadratic work shows as
// a larger ratio.
func setupScaling(cfg core.Config) (float64, error) {
	nx, ny := max(2, cfg.NX/2), max(2, cfg.NY/2)
	small, err := schwarzSetupSeconds(cfg, nx, ny)
	if err != nil {
		return 0, err
	}
	big, err := schwarzSetupSeconds(cfg, 2*nx, 2*ny)
	if err != nil {
		return 0, err
	}
	return big / small, nil
}

func schwarzSetupSeconds(cfg core.Config, nx, ny int) (float64, error) {
	cfg.NX, cfg.NY = nx, ny
	p, err := core.Build(cfg)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	q := p.Disc.FreestreamVector()
	jac := p.Disc.JacobianPattern()
	if err := p.Disc.AssembleJacobian(q, jac); err != nil {
		return 0, err
	}
	newton.AddTimeDiagonal(jac, p.Disc.TimeScales(q), cfg.Newton.CFL0)
	factory := p.PCFactory(nil)
	times := make([]float64, 0, scalingReps)
	for i := 0; i < scalingReps; i++ {
		start := time.Now()
		if _, err := factory(jac); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}
