package ilu

import (
	"fmt"
	"math"
	"testing"

	"petscfun3d/internal/par"
	"petscfun3d/internal/sparse"
)

// genericSolve is the reference triangular solve: the plain B-generic
// row loops, every product row summed from zero in column order, in
// natural row order. The fused kernels must reproduce it bit for bit.
func genericSolve(f *Factorization, b, x []float64) {
	n := f.B
	bb := n * n
	w := func(k int) float64 {
		if f.val32 != nil {
			return float64(f.val32[k])
		}
		return f.val64[k]
	}
	d := func(k int) float64 {
		if f.invDiag32 != nil {
			return float64(f.invDiag32[k])
		}
		return f.invDiag64[k]
	}
	// sub subtracts block k times x's block column j from row i of x.
	sub := func(i, k, j int) {
		for r := 0; r < n; r++ {
			var s float64
			for c := 0; c < n; c++ {
				s += w(k*bb+r*n+c) * x[j*n+c]
			}
			x[i*n+r] -= s
		}
	}
	for i := 0; i < f.NB; i++ {
		copy(x[i*n:i*n+n], b[i*n:i*n+n])
		for k := int(f.RowPtr[i]); k < int(f.diagK[i]); k++ {
			sub(i, k, int(f.ColIdx[k]))
		}
	}
	tmp := make([]float64, n)
	for i := f.NB - 1; i >= 0; i-- {
		for k := int(f.diagK[i]) + 1; k < int(f.RowPtr[i+1]); k++ {
			sub(i, k, int(f.ColIdx[k]))
		}
		for r := 0; r < n; r++ {
			var s float64
			for c := 0; c < n; c++ {
				s += d(i*bb+r*n+c) * x[i*n+c]
			}
			tmp[r] = s
		}
		copy(x[i*n:i*n+n], tmp)
	}
}

// TestSub4MatchesGenericRow: the fused row kernel is bitwise the generic
// block loop over one row, signed zeros included. This is where a
// dropped zero seed in sub4 shows; the solve's output hides it. Every
// other trial runs on an x of signed zeros, so that every product is a
// signed zero and a row update sums four of them.
func TestSub4MatchesGenericRow(t *testing.T) {
	next := signedZeroValues(3)
	lcg := uint64(5)
	signed := func(v float64) float64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		if lcg>>63 == 1 {
			return -v
		}
		return v
	}
	const nx = 16 // block columns of x
	for trial := 0; trial < 400; trial++ {
		zeros := trial%2 == 0
		value := func() float64 {
			if zeros {
				return signed(0)
			}
			return signed(next())
		}
		nblk := trial % 9
		cols := make([]int32, nblk)
		vals := make([]float64, 16*nblk)
		x := make([]float64, 4*nx)
		for k := range cols {
			cols[k] = int32((trial*7 + k*5) % nx)
		}
		for i := range vals {
			vals[i] = signed(next())
		}
		for i := range x {
			x[i] = value()
		}
		want := []float64{value(), value(), value(), value()}
		got := make([]float64, 4)
		got[0], got[1], got[2], got[3] = sub4(want[0], want[1], want[2], want[3], cols, vals, x)
		for k, c := range cols {
			for r := 0; r < 4; r++ {
				var s float64
				for col := 0; col < 4; col++ {
					s += vals[k*16+r*4+col] * x[int(c)*4+col]
				}
				want[r] -= s
			}
		}
		sameBits(t, fmt.Sprintf("trial %d sub4", trial), got, want)
	}
}

// denseSolve returns A⁻¹ b by Gaussian elimination with partial
// pivoting on the dense expansion of a.
func denseSolve(a *sparse.BCSR, b []float64) []float64 {
	n, nb := a.N(), a.B
	m := make([]float64, n*n)
	for i := 0; i < a.NB; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.ColIdx[k])
			for r := 0; r < nb; r++ {
				for c := 0; c < nb; c++ {
					m[(i*nb+r)*n+j*nb+c] = a.Val[int(k)*nb*nb+r*nb+c]
				}
			}
		}
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r*n+col]) > math.Abs(m[piv*n+col]) {
				piv = r
			}
		}
		for c := 0; c < n; c++ {
			m[col*n+c], m[piv*n+c] = m[piv*n+c], m[col*n+c]
		}
		x[col], x[piv] = x[piv], x[col]
		for r := col + 1; r < n; r++ {
			fac := m[r*n+col] / m[col*n+col]
			for c := col; c < n; c++ {
				m[r*n+c] -= fac * m[col*n+c]
			}
			x[r] -= fac * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= m[r*n+c] * x[c]
		}
		x[r] = s / m[r*n+r]
	}
	return x
}

// TestSolveWideBlocksMatchDense: block sizes wider than five solve, in
// both precisions, through Solve, a nil-pool SolvePar and a pooled
// SolvePar. With full fill the factorization is an exact LU, so every
// path must reproduce the dense solve of A.
func TestSolveWideBlocksMatchDense(t *testing.T) {
	a := wingBlockMatrix(t, 3, 3, 3, 6, 21)
	n := a.N()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Cos(float64(i)*0.21) - 0.4
	}
	want := denseSolve(a, rhs)
	var scale float64
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	p := par.New(2)
	defer p.Close()
	for _, single := range []bool{false, true} {
		f, err := Factor(a, Options{Level: 30, SinglePrecision: single})
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-10
		if single {
			tol = 1e-4
		}
		for name, solve := range map[string]func(b, x []float64){
			"Solve":        f.Solve,
			"SolvePar/nil": func(b, x []float64) { f.SolvePar(nil, b, x) },
			"SolvePar/2":   func(b, x []float64) { f.SolvePar(p, b, x) },
		} {
			got := make([]float64, n)
			solve(rhs, got)
			for i := range want {
				if d := math.Abs(got[i] - want[i]); !(d <= tol*scale) {
					t.Fatalf("single=%v %s: x[%d]=%g, dense solve gives %g (|Δ|=%g, tolerance %g)",
						single, name, i, got[i], want[i], d, tol*scale)
				}
			}
		}
	}
}
