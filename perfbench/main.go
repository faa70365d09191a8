// Command perfbench is the ψNKS solve benchmark: time to steady state on
// three canonical solves of the wing problem, each checked for
// correctness by re-evaluating the residual of the returned state.
//
// Run it from the repository root through its wrapper, which builds this
// module first:
//
//	python3 perfbench/run.py --workload matfree-lagged --seed 1 --seconds 25 --trace 0
//
// With -trace 0 it reports the end-to-end metrics (solve_s, setup_s,
// peak_rss_mb, newton_steps, linear_iters, solve_ok_frac). With -trace 1
// it reports per-layer metrics, timed from outside the program through
// its public entry points: a PCFactory wrapper around schwarz.New, the
// newton.Hooks operator and preconditioner wrappers, per-rank timers
// around dist.NewtonSolve with profilers the benchmark owns, and one call
// to each constructor core.Build makes. Rates named *_computed divide the
// layers' public *Bytes/*Flops formulas by measured time; they ignore
// cache misses.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the run's
// record: workload, lattice, host fingerprint, and the sha256 of the
// residual history.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run's provenance line.
type record struct {
	Schema            string        `json:"schema"`
	Workload          string        `json:"workload"`
	Seed              int64         `json:"seed"`
	Trace             int           `json:"trace"`
	Lattice           [3]int        `json:"lattice"`
	Vertices          int           `json:"vertices"`
	Threads           int           `json:"threads"`
	Ranks             int           `json:"ranks"`
	Host              fingerprint   `json:"host"`
	Solves            []solveRecord `json:"solves"`
	HistorySHA256     string        `json:"residual_history_sha256"`
	HistoriesAgree    bool          `json:"residual_histories_agree"`
	SpansReconcile    bool          `json:"spans_reconcile"`
	ComputedRatesNote string        `json:"computed_rates_note"`
}

type solveRecord struct {
	Traced      bool    `json:"traced"`
	Seconds     float64 `json:"seconds"`
	Steps       int     `json:"steps"`
	LinearIts   int     `json:"linear_its"`
	RelResidual float64 `json:"rel_residual"`
	History     string  `json:"history_sha256"`
	Error       string  `json:"error,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: matfree-lagged, assembled-refresh or dist-2rank")
	seed := fs.Int64("seed", 1, "seed choosing the wing lattice dimensions")
	seconds := fs.Float64("seconds", 10, "seconds of solves to measure")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	nx, ny, nz := w.lattice(*seed)
	b := &bench{cfg: w.config(nx, ny, nz), seconds: *seconds}
	var out measured
	if *trace == 0 {
		out, err = b.timed()
	} else {
		out, err = b.traced()
	}
	if err != nil {
		return err
	}
	host, err := hostFingerprint(*root)
	if err != nil {
		return err
	}
	if *trace == 1 {
		out.values["stream.triad_mbps"] = host.TriadMBps
		if host.TriadMBps > 0 {
			out.values["ilu.solve_stream_frac"] = out.values["ilu.solve_gbps_computed"] * 1e3 / host.TriadMBps
		}
	}

	rec := record{
		Schema: "perfbench-record/1", Workload: w.name, Seed: *seed, Trace: *trace,
		Lattice: [3]int{nx, ny, nz}, Vertices: nx * ny * nz,
		Threads: b.cfg.Threads, Ranks: b.cfg.Ranks, Host: host,
		HistoriesAgree: true, SpansReconcile: out.reconciled,
		ComputedRatesNote: "*_computed rates divide the layers' public *Bytes/*Flops formulas by measured seconds; they ignore cache misses",
	}
	res := result{Attempted: len(out.solves), Metrics: map[string]metric{}}
	for _, s := range out.solves {
		sr := solveRecord{Traced: s.traced, Seconds: s.seconds, Steps: s.steps, LinearIts: s.linearIts,
			RelResidual: s.relResidual, History: s.history}
		if s.err != nil {
			sr.Error = s.err.Error()
		}
		rec.Solves = append(rec.Solves, sr)
		if s.failed() {
			res.Failed++
		}
		if s.history != out.solves[0].history {
			rec.HistoriesAgree = false
		}
	}
	rec.HistorySHA256 = out.solves[0].history
	res.Correct = res.Failed == 0 && rec.HistoriesAgree && out.reconciled

	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	for _, n := range names {
		v, ok := out.values[n.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: no finite value (%v)", n.name, v)
		}
		res.Metrics[n.name] = metric{Value: v, Unit: n.unit}
	}
	for _, line := range []any{rec, res} {
		buf, err := json.Marshal(line)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", buf); err != nil {
			return err
		}
	}
	return nil
}

// metricName is a reported metric and its unit.
type metricName struct{ name, unit string }

// endToEnd are the metrics a run with -trace 0 reports.
var endToEnd = []metricName{
	{"solve_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"newton_steps", "count"},
	{"linear_iters", "count"},
	{"solve_ok_frac", "frac"},
}

// perLayer are the metrics a run with -trace 1 reports, named
// layer.metric after the internal/ module that does the work. A layer a
// workload does not run reports 0.
var perLayer = []metricName{
	{"mesh.generate_s", "s"},
	{"mesh.rcm_s", "s"},
	{"euler.build_s", "s"},
	{"partition.kway_s", "s"},
	{"schwarz.setup_s", "s"},
	{"schwarz.setup_calls", "count"},
	{"schwarz.setup_scaling", "ratio"},
	{"ilu.factor_gbps_computed", "GB/s"},
	{"schwarz.apply_s", "s"},
	{"schwarz.apply_calls", "count"},
	{"ilu.solve_gbps_computed", "GB/s"},
	{"ilu.solve_stream_frac", "frac"},
	{"euler.jv_s", "s"},
	{"euler.jv_calls", "count"},
	{"euler.flux_gflops_computed", "GFLOP/s"},
	{"sparse.spmv_s", "s"},
	{"sparse.spmv_calls", "count"},
	{"sparse.spmv_gbps_computed", "GB/s"},
	{"newton.self_s", "s"},
	{"euler.jacobian_s", "s"},
	{"krylov.ortho_s", "s"},
	{"krylov.iters_per_step", "count"},
	{"dist.rank_solve_s_max", "s"},
	{"dist.rank_solve_s_min", "s"},
	{"dist.scatter_wait_s", "s"},
	{"dist.reduce_s", "s"},
	{"dist.tri_solve_s", "s"},
	{"dist.pc_setup_s", "s"},
	{"core.alloc_mb", "MB"},
	{"core.gc_cycles", "count"},
	{"stream.triad_mbps", "MB/s"},
	{"trace.solve_s", "s"},
	{"trace.overhead_s", "s"},
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
