package ilu

import (
	"fmt"
	"math"
	"testing"

	"petscfun3d/internal/par"
)

// levelFixture factors a wing matrix for the schedule tests.
func levelFixture(t testing.TB, b, level int, single bool) *Factorization {
	t.Helper()
	a := wingBlockMatrix(t, 8, 5, 4, b, 42)
	f, err := Factor(a, Options{Level: level, SinglePrecision: single})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLevelSetsAreAValidSchedule: every row appears exactly once per
// direction, and every dependency lands in a strictly earlier level.
func TestLevelSetsAreAValidSchedule(t *testing.T) {
	for _, level := range []int{0, 1, 2} {
		f := levelFixture(t, 4, level, false)
		for dir, sched := range map[string]struct{ rows, ptr []int32 }{
			"fwd": {f.fwdRows, f.fwdPtr},
			"bwd": {f.bwdRows, f.bwdPtr},
		} {
			if len(sched.rows) != f.NB {
				t.Fatalf("level=%d %s: %d scheduled rows, want %d", level, dir, len(sched.rows), f.NB)
			}
			levelOf := make([]int, f.NB)
			seen := make([]bool, f.NB)
			for l := 0; l+1 < len(sched.ptr); l++ {
				for _, i := range sched.rows[sched.ptr[l]:sched.ptr[l+1]] {
					if seen[i] {
						t.Fatalf("level=%d %s: row %d scheduled twice", level, dir, i)
					}
					seen[i] = true
					levelOf[i] = l
				}
			}
			for i := 0; i < f.NB; i++ {
				if !seen[i] {
					t.Fatalf("level=%d %s: row %d never scheduled", level, dir, i)
				}
				lo, hi := f.RowPtr[i], f.diagK[i]
				if dir == "bwd" {
					lo, hi = f.diagK[i]+1, f.RowPtr[i+1]
				}
				for k := lo; k < hi; k++ {
					j := f.ColIdx[k]
					if levelOf[j] >= levelOf[i] {
						t.Fatalf("level=%d %s: row %d (level %d) depends on row %d (level %d)",
							level, dir, i, levelOf[i], j, levelOf[j])
					}
				}
			}
		}
	}
}

// TestSolveParBitwiseIdentical pins both solve paths, the sequential
// Solve and SolvePar's level shards at every worker count, bit for bit
// to genericSolve across block sizes (the fused B=4 kernel and the
// generic loop on either side of it), fill levels, storage precisions
// and repeated runs. Reordering a fused sum's terms changes its rounding
// on the mixed right-hand side. A right-hand side of scattered +0 and -0
// keeps the solve in signed zeros, where a diagonal multiply that drops
// its zero seed flips the sign of a result. (An off-diagonal update's
// seed cannot show in x: every row ends in a seeded diagonal multiply,
// which turns any all-zero input into +0; TestSub4MatchesGenericRow
// pins it.)
func TestSolveParBitwiseIdentical(t *testing.T) {
	for _, b := range []int{1, 3, 4, 5, 6} {
		for level := 0; level <= 2; level++ {
			for _, single := range []bool{false, true} {
				f := levelFixture(t, b, level, single)
				n := f.NB * f.B
				rhs := map[string][]float64{"mixed": make([]float64, n), "zeros": make([]float64, n)}
				for i := 0; i < n; i++ {
					rhs["mixed"][i] = float64(i%13) - 6.0
					sign := float64(uint32(i)*2654435761>>16&1) - 0.5
					rhs["zeros"][i] = math.Copysign(0, sign)
				}
				for name, r := range rhs {
					tag := fmt.Sprintf("b=%d level=%d single=%v rhs=%s", b, level, single, name)
					want := make([]float64, n)
					genericSolve(f, r, want)
					got := make([]float64, n)
					f.Solve(r, got)
					sameBits(t, tag+" Solve", got, want)
					for _, nw := range []int{1, 2, 4, 8} {
						p := par.New(nw)
						for rep := 0; rep < 3; rep++ {
							clear(got)
							f.SolvePar(p, r, got)
							sameBits(t, fmt.Sprintf("%s nw=%d rep=%d", tag, nw, rep), got, want)
						}
						p.Close()
					}
				}
			}
		}
	}
}

// TestSolveParNilPool: a nil pool falls back to the sequential solve.
func TestSolveParNilPool(t *testing.T) {
	f := levelFixture(t, 4, 0, false)
	n := f.NB * f.B
	b := make([]float64, n)
	for i := range b {
		b[i] = 1.0 / float64(i+1)
	}
	want := make([]float64, n)
	got := make([]float64, n)
	f.Solve(b, want)
	f.SolvePar(nil, b, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("x[%d]=%x, want %x", i, got[i], want[i])
		}
	}
}

// TestLevelStats: the schedule statistics are internally consistent and
// show real parallelism on a mesh-derived pattern.
func TestLevelStats(t *testing.T) {
	f := levelFixture(t, 4, 1, false)
	st := f.LevelStats()
	if st.Rows != f.NB {
		t.Fatalf("Rows=%d, want %d", st.Rows, f.NB)
	}
	if st.FwdLevels < 1 || st.FwdLevels > f.NB || st.BwdLevels < 1 || st.BwdLevels > f.NB {
		t.Fatalf("level counts out of range: fwd=%d bwd=%d NB=%d", st.FwdLevels, st.BwdLevels, f.NB)
	}
	if st.MaxWidth < 1 || st.MaxWidth > f.NB {
		t.Fatalf("MaxWidth=%d out of range", st.MaxWidth)
	}
	if st.AvgWidth <= 1 {
		t.Fatalf("AvgWidth=%.2f: a wing mesh schedule should expose parallelism", st.AvgWidth)
	}
}

// TestSolveParSteadyStateAllocs: after a warm-up solve sizes the
// per-worker scratch, repeated threaded solves do not allocate.
func TestSolveParSteadyStateAllocs(t *testing.T) {
	f := levelFixture(t, 4, 1, false)
	n := f.NB * f.B
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 7)
	}
	p := par.New(4)
	defer p.Close()
	f.SolvePar(p, b, x) // warm up scratch
	if avg := testing.AllocsPerRun(20, func() { f.SolvePar(p, b, x) }); avg > 0 {
		t.Fatalf("SolvePar allocates %.1f objects per solve", avg)
	}
}
