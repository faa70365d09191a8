package schwarz

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"petscfun3d/internal/ilu"
	"petscfun3d/internal/sparse"
)

// naiveSubdomain is the reference extraction: BFS over a membership
// map, a sort of the map's keys, and a map lookup per block.
func naiveSubdomain(a *sparse.BCSR, owned []int32, overlap int) (ext []int32, local *sparse.BCSR) {
	in := map[int32]bool{}
	for _, r := range owned {
		in[r] = true
	}
	frontier := owned
	for layer := 0; layer < overlap; layer++ {
		var next []int32
		for _, r := range frontier {
			for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
				if !in[j] {
					in[j] = true
					next = append(next, j)
				}
			}
		}
		frontier = next
	}
	for r := range in {
		ext = append(ext, r)
	}
	sort.Slice(ext, func(i, j int) bool { return ext[i] < ext[j] })
	g2l := map[int32]int32{}
	for li, r := range ext {
		g2l[r] = int32(li)
	}
	rows := make([][]int32, len(ext))
	for li, r := range ext {
		for _, j := range a.ColIdx[a.RowPtr[r]:a.RowPtr[r+1]] {
			if lj, ok := g2l[j]; ok {
				rows[li] = append(rows[li], lj)
			}
		}
	}
	local = sparse.NewBCSRPattern(len(ext), a.B, rows)
	for li, r := range ext {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			if lj, ok := g2l[a.ColIdx[k]]; ok {
				dst, _ := local.BlockAt(li, int(lj))
				copy(dst, a.Block(int(k)))
			}
		}
	}
	return ext, local
}

func equalBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bitwise)", what, i, got[i], want[i])
		}
	}
}

// TestExtractionMatchesNaiveReference: the linear-time extraction
// produces exactly the subdomains of the map-and-sort reference.
func TestExtractionMatchesNaiveReference(t *testing.T) {
	for _, nparts := range []int{1, 2, 4} {
		pr := buildProblem(t, 7, 5, 4, 3, nparts)
		for overlap := 0; overlap <= 2; overlap++ {
			pc, err := New(pr.a, pr.part.Part, nparts, Options{Overlap: overlap})
			if err != nil {
				t.Fatal(err)
			}
			for q, s := range pc.Subs {
				name := fmt.Sprintf("nparts=%d overlap=%d sub=%d", nparts, overlap, q)
				ext, local := naiveSubdomain(pr.a, s.Owned, overlap)
				if !slices.Equal(s.Extended, ext) || !slices.Equal(s.Local.RowPtr, local.RowPtr) || !slices.Equal(s.Local.ColIdx, local.ColIdx) {
					t.Fatalf("%s: Extended or local pattern differs from the reference", name)
				}
				equalBits(t, name+" Local.Val", s.Local.Val, local.Val)
				for t2, gr := range s.Owned {
					if got := s.Extended[s.ownedLocal[t2]]; got != gr {
						t.Fatalf("%s: owned row %d prolongs from local row of global %d", name, gr, got)
					}
				}
			}
		}
	}
}

// applyAll returns M⁻¹ r for a few right-hand sides, concatenated.
func applyAll(pc *Preconditioner, n int) []float64 {
	var out []float64
	for _, freq := range []float64{0.17, 0.9, 2.3} {
		r := make([]float64, n)
		for i := range r {
			r[i] = math.Sin(float64(i) * freq)
		}
		z := make([]float64, n)
		pc.Apply(r, z)
		out = append(out, z...)
	}
	return out
}

// TestRefreshEqualsNew: refreshing onto a second set of values gives
// bitwise the local matrices and applications of a fresh build.
func TestRefreshEqualsNew(t *testing.T) {
	for _, nparts := range []int{1, 4} {
		for _, opts := range []Options{
			{Overlap: 0, ILU: ilu.Options{Level: 0}},
			{Overlap: 1, ILU: ilu.Options{Level: 1}},
			{Overlap: 2, ILU: ilu.Options{Level: 1, SinglePrecision: true}},
		} {
			pr := buildProblem(t, 7, 5, 4, 4, nparts)
			pc, err := New(pr.a, pr.part.Part, nparts, opts)
			if err != nil {
				t.Fatal(err)
			}
			a2 := sparse.BlockPattern(pr.g, 4)
			a2.FillDeterministic(23)
			if err := pc.Refresh(a2); err != nil {
				t.Fatal(err)
			}
			fresh, err := New(a2, pr.part.Part, nparts, opts)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("nparts=%d %+v", nparts, opts)
			for q := range pc.Subs {
				equalBits(t, name+" Local.Val", pc.Subs[q].Local.Val, fresh.Subs[q].Local.Val)
			}
			equalBits(t, name+" Apply", applyAll(pc, a2.N()), applyAll(fresh, a2.N()))
		}
	}
}

// TestRefreshRejectsOtherPattern: a matrix with another block pattern
// is refused with ErrPatternChanged and leaves the preconditioner as it
// was.
func TestRefreshRejectsOtherPattern(t *testing.T) {
	pr := buildProblem(t, 7, 5, 4, 4, 2)
	pc, err := New(pr.a, pr.part.Part, 2, Options{Overlap: 1, ILU: ilu.Options{Level: 1}})
	if err != nil {
		t.Fatal(err)
	}
	before := applyAll(pc, pr.a.N())
	diag := make([][]int32, pr.a.NB)
	for i := range diag {
		diag[i] = []int32{int32(i)}
	}
	other := sparse.NewBCSRPattern(pr.a.NB, 4, diag)
	if err := pc.Refresh(other); !errors.Is(err, ErrPatternChanged) {
		t.Fatalf("refresh onto a block-diagonal pattern returned %v, want ErrPatternChanged", err)
	}
	equalBits(t, "Apply after refused refresh", applyAll(pc, pr.a.N()), before)
}
