package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestEveryMetricPrintedWithUnit runs each workload once on a tiny mesh,
// untraced and traced, and checks that the result line carries exactly
// the metrics BENCHMARK.json names, each with its unit, and that every
// solve passed the benchmark's correctness checks.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	saved := append([]workload(nil), workloads...)
	t.Cleanup(func() { copy(workloads, saved) })
	for i := range workloads {
		workloads[i].base = [3]int{10, 7, 5}
	}
	for _, w := range sp.Workloads {
		for trace, want := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
			var out bytes.Buffer
			args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "0",
				"-trace", strconv.Itoa(trace), "-root", ".."}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestLatticeFollowsSeed: a seed always gives the same lattice, seeds
// reach both lattices, and both stay within 2% of the base size.
func TestLatticeFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		base := w.base[0] * w.base[1] * w.base[2]
		seen := map[[3]int]bool{}
		for seed := int64(0); seed < 20; seed++ {
			nx, ny, nz := w.lattice(seed)
			if ax, ay, az := w.lattice(seed); ax != nx || ay != ny || az != nz {
				t.Fatalf("%s seed %d: lattice %dx%dx%d then %dx%dx%d", w.name, seed, nx, ny, nz, ax, ay, az)
			}
			if nv := nx * ny * nz; math.Abs(float64(nv-base)) > 0.02*float64(base) {
				t.Errorf("%s seed %d: %d vertices, base lattice has %d", w.name, seed, nv, base)
			}
			seen[[3]int{nx, ny, nz}] = true
		}
		if len(seen) != 2 {
			t.Errorf("%s: seeds 0..19 reach %d lattices, want 2", w.name, len(seen))
		}
	}
}
