package ilu

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"petscfun3d/internal/sparse"
)

// sameBits fails the test unless got and want are bitwise identical.
func sameBits[T float32 | float64](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := float64(got[i]), float64(want[i])
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s[%d] = %v, want %v (bitwise)", what, i, g, w)
		}
	}
}

// sameFactors fails the test unless f and g hold bitwise identical
// factors and inverted diagonals.
func sameFactors(t *testing.T, f, g *Factorization) {
	t.Helper()
	sameBits(t, "val64", f.val64, g.val64)
	sameBits(t, "invDiag64", f.invDiag64, g.invDiag64)
	sameBits(t, "val32", f.val32, g.val32)
	sameBits(t, "invDiag32", f.invDiag32, g.invDiag32)
}

// TestRefactorBitwiseEqualsFactor: refactoring onto new values of the
// same pattern reproduces a fresh Factor of those values bit for bit,
// including a second refactor after the first has written every fill
// slot, so no value of an earlier factorization survives.
func TestRefactorBitwiseEqualsFactor(t *testing.T) {
	for _, b := range []int{1, 3, 4, 5, 6} {
		for level := 0; level <= 2; level++ {
			for _, single := range []bool{false, true} {
				t.Run(fmt.Sprintf("b=%d/level=%d/single=%v", b, level, single), func(t *testing.T) {
					opts := Options{Level: level, SinglePrecision: single}
					f, err := Factor(wingBlockMatrix(t, 5, 4, 4, b, 3), opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, seed := range []uint64{5, 7, 7} {
						a := wingBlockMatrix(t, 5, 4, 4, b, seed)
						if err := f.Refactor(a); err != nil {
							t.Fatal(err)
						}
						fresh, err := Factor(a, opts)
						if err != nil {
							t.Fatal(err)
						}
						sameFactors(t, f, fresh)
					}
				})
			}
		}
	}
}

// TestRefactorSingularPivotRecovers: a refresh whose values make a
// pivot block singular reports ErrSingularPivot with the row, and the
// next refresh with good values is bitwise a fresh factorization.
func TestRefactorSingularPivotRecovers(t *testing.T) {
	for _, single := range []bool{false, true} {
		opts := Options{Level: 1, SinglePrecision: single}
		good := wingBlockMatrix(t, 5, 4, 4, 4, 11)
		f, err := Factor(good, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Zero row 17: its L multipliers vanish, so U_17,17 = 0.
		const row = 17
		bad := wingBlockMatrix(t, 5, 4, 4, 4, 13)
		bb := bad.B * bad.B
		clear(bad.Val[int(bad.RowPtr[row])*bb : int(bad.RowPtr[row+1])*bb])
		err = f.Refactor(bad)
		if !errors.Is(err, ErrSingularPivot) {
			t.Fatalf("single=%v: singular refresh returned %v, want ErrSingularPivot", single, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("row %d", row)) {
			t.Errorf("single=%v: error %q does not name row %d", single, err, row)
		}
		if _, err := Factor(bad, opts); !errors.Is(err, ErrSingularPivot) {
			t.Errorf("single=%v: fresh Factor of the singular values returned %v", single, err)
		}
		if err := f.Refactor(good); err != nil {
			t.Fatal(err)
		}
		fresh, err := Factor(good, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameFactors(t, f, fresh)
	}
}

// TestRefactorRejectsOtherPattern: a matrix of another pattern is
// refused before any value is touched, including one with as many
// blocks as the factored matrix but a moved column or row split.
func TestRefactorRejectsOtherPattern(t *testing.T) {
	good := wingBlockMatrix(t, 5, 4, 4, 4, 3)
	f, err := Factor(good, Options{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), f.val64...)
	// Row 17 gets a column it does not have in the factored matrix.
	const row = 17
	movedCol := wingBlockMatrix(t, 5, 4, 4, 4, 3)
	last := movedCol.RowPtr[row+1] - 1
	inRow := make(map[int32]bool)
	for _, j := range movedCol.ColIdx[movedCol.RowPtr[row] : last+1] {
		inRow[j] = true
	}
	for j := int32(0); ; j++ {
		if !inRow[j] {
			movedCol.ColIdx[last] = j
			break
		}
	}
	// Row 17's last block moves to row 18, keeping its column.
	movedSplit := wingBlockMatrix(t, 5, 4, 4, 4, 3)
	movedSplit.RowPtr[row+1]--
	for _, c := range []struct {
		name string
		a    *sparse.BCSR
	}{
		{"fewer blocks", wingBlockMatrix(t, 5, 4, 3, 4, 3)},
		{"block size", wingBlockMatrix(t, 5, 4, 4, 3, 3)},
		{"moved column", movedCol},
		{"moved row split", movedSplit},
	} {
		if err := f.Refactor(c.a); err == nil {
			t.Errorf("%s: refactor onto a different pattern accepted", c.name)
		}
		sameBits(t, c.name+": val64", f.val64, want)
	}
	if err := f.Refactor(good); err != nil {
		t.Fatal(err)
	}
}

// TestRefactorDoesNotAllocate: the double-precision numeric phase runs
// entirely in the factorization's own storage and workspace.
func TestRefactorDoesNotAllocate(t *testing.T) {
	for _, b := range []int{1, 4, 5, 6} {
		a := wingBlockMatrix(t, 5, 4, 4, b, 3)
		f, err := Factor(a, Options{Level: 1})
		if err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(5, func() {
			if err := f.Refactor(a); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("b=%d: Refactor allocates %.1f objects per call", b, avg)
		}
	}
}

// signedZeroValues returns a deterministic stream of values in [0, 2)
// with a quarter of them +0 or -0, for bitwise kernel checks.
func signedZeroValues(seed uint64) func() float64 {
	s := seed
	return func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		switch s >> 61 {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		return float64(int64(s>>11)) / (1 << 52)
	}
}

// TestMulSubMatchesMatMul: the fused block update is bitwise the
// matMul product subtracted entry by entry, signed zeros included.
func TestMulSubMatchesMatMul(t *testing.T) {
	const n = 4
	next := signedZeroValues(1)
	for trial := 0; trial < 200; trial++ {
		a, u, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
		for i := range a {
			a[i], u[i], c[i] = next(), next(), next()
		}
		want := append([]float64(nil), c...)
		prod := make([]float64, n*n)
		matMul(a, u, prod, n)
		for i := range want {
			want[i] -= prod[i]
		}
		mulSub4(c, a, u)
		sameBits(t, "mulSub4", c, want)
	}
}
