package ilu

import "petscfun3d/internal/prof"

// Solve applies the factorization: x = (LU)⁻¹ b, via a block forward
// substitution (unit-diagonal L) followed by a block backward
// substitution using the pre-inverted U diagonal blocks. b and x must
// have length NB*B and may not alias. This triangular solve is the
// memory-bandwidth-bound kernel of the paper's Table 2: each stored
// factor value is touched exactly once per solve. It runs the row
// bodies SolvePar's level shards run, over the rows in natural order.
func (f *Factorization) Solve(b, x []float64) {
	sp := prof.Begin(prof.PhaseTriSolve)
	defer sp.End(f.SolveFlops(), f.SolveBytes())
	f.forward(f.seqRows, b, x)
	f.backward(f.revRows, x, f.scratch[:f.B])
}

// forward runs the forward substitution for the listed rows in the
// storage precision.
func (f *Factorization) forward(rows []int32, b, x []float64) {
	if f.val32 != nil {
		f.forwardRows32(rows, b, x)
		return
	}
	f.forwardRows(rows, b, x)
}

// backward runs the backward substitution for the listed rows in the
// storage precision; tmp (length B) holds the generic body's diagonal
// multiply.
func (f *Factorization) backward(rows []int32, x, tmp []float64) {
	if f.val32 != nil {
		f.backwardRows32(rows, x, tmp)
		return
	}
	f.backwardRows(rows, x, tmp)
}

// Every row body below accumulates a row's blocks in ascending k, and
// each product row from zero in column order, whatever order the rows
// come in. Any schedule that respects the dependencies — natural order
// or level by level — therefore produces the same bits.

// forwardRows runs the forward substitution's body for the listed rows:
// y_i = b_i - Σ_{j<i} L_ij y_j, stored into x.
func (f *Factorization) forwardRows(rows []int32, b, x []float64) {
	n := f.B
	bb := n * n
	for _, i := range rows {
		lo, hi := int(f.RowPtr[i]), int(f.diagK[i])
		xi := x[int(i)*n : int(i)*n+n]
		bi := b[int(i)*n : int(i)*n+n]
		if n == 4 {
			xi[0], xi[1], xi[2], xi[3] = sub4(bi[0], bi[1], bi[2], bi[3], f.ColIdx[lo:hi], f.val64[lo*16:hi*16], x)
			continue
		}
		copy(xi, bi)
		for k := lo; k < hi; k++ {
			j := int(f.ColIdx[k]) * n
			blk := f.val64[k*bb : k*bb+bb]
			xs := x[j : j+n]
			for r := 0; r < n; r++ {
				row := blk[r*n:]
				row = row[:len(xs)] // bce: ties len(row) to len(xs); the c index needs one range check, not two
				var s float64
				for c, w := range row {
					s += w * xs[c]
				}
				xi[r] -= s
			}
		}
	}
}

// backwardRows runs the backward substitution's body for the listed
// rows: x_i = invU_ii (y_i - Σ_{j>i} U_ij x_j). The B=4 kernel applies
// the inverted diagonal from registers; other block sizes stage it in
// the caller-owned tmp (length B).
func (f *Factorization) backwardRows(rows []int32, x, tmp []float64) {
	n := f.B
	bb := n * n
	for _, i := range rows {
		lo, hi := int(f.diagK[i])+1, int(f.RowPtr[i+1])
		xi := x[int(i)*n : int(i)*n+n]
		inv := f.invDiag64[int(i)*bb : int(i)*bb+bb]
		if n == 4 {
			x0, x1, x2, x3 := sub4(xi[0], xi[1], xi[2], xi[3], f.ColIdx[lo:hi], f.val64[lo*16:hi*16], x)
			d := (*[16]float64)(inv)
			xi[0] = 0 + d[0]*x0 + d[1]*x1 + d[2]*x2 + d[3]*x3
			xi[1] = 0 + d[4]*x0 + d[5]*x1 + d[6]*x2 + d[7]*x3
			xi[2] = 0 + d[8]*x0 + d[9]*x1 + d[10]*x2 + d[11]*x3
			xi[3] = 0 + d[12]*x0 + d[13]*x1 + d[14]*x2 + d[15]*x3
			continue
		}
		for k := lo; k < hi; k++ {
			j := int(f.ColIdx[k]) * n
			blk := f.val64[k*bb : k*bb+bb]
			xs := x[j : j+n]
			for r := 0; r < n; r++ {
				row := blk[r*n:]
				row = row[:len(xs)] // bce: ties len(row) to len(xs); the c index needs one range check, not two
				var s float64
				for c, w := range row {
					s += w * xs[c]
				}
				xi[r] -= s
			}
		}
		for r := 0; r < n; r++ {
			row := inv[r*n:]
			row = row[:len(xi)] // bce: ties len(row) to len(xi); the c index needs one range check, not two
			var s float64
			for c, w := range row {
				s += w * xi[c]
			}
			tmp[r] = s
		}
		copy(xi, tmp)
	}
}

// sub4 is the fused B=4 row kernel of both substitutions: it returns
// s − Σ_k V_k x_{cols[k]} over one row's 4×4 blocks V_k (vals holds them
// back to back), with the row's four unknowns in registers across the
// row. Each update sums from zero in the generic body's column order,
// the rule mulSub4 follows (DESIGN.md), so the result is bitwise the
// generic body's.
func sub4(s0, s1, s2, s3 float64, cols []int32, vals, x []float64) (float64, float64, float64, float64) {
	for len(cols) > 0 && len(vals) >= 16 {
		j := int(cols[0]) * 4
		y := (*[4]float64)(x[j : j+4]) //lint:bce-ok gather through the block column index is data-dependent
		w := (*[16]float64)(vals)
		cols, vals = cols[1:], vals[16:]
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		s0 -= 0 + w[0]*y0 + w[1]*y1 + w[2]*y2 + w[3]*y3
		s1 -= 0 + w[4]*y0 + w[5]*y1 + w[6]*y2 + w[7]*y3
		s2 -= 0 + w[8]*y0 + w[9]*y1 + w[10]*y2 + w[11]*y3
		s3 -= 0 + w[12]*y0 + w[13]*y1 + w[14]*y2 + w[15]*y3
	}
	return s0, s1, s2, s3
}

// forwardRows32 is forwardRows for single-precision factor storage;
// arithmetic stays in float64.
func (f *Factorization) forwardRows32(rows []int32, b, x []float64) {
	n := f.B
	bb := n * n
	for _, i := range rows {
		xi := x[int(i)*n : int(i)*n+n]
		copy(xi, b[int(i)*n:int(i)*n+n])
		for k := int(f.RowPtr[i]); k < int(f.diagK[i]); k++ {
			j := int(f.ColIdx[k]) * n
			blk := f.val32[k*bb : k*bb+bb]
			xs := x[j : j+n]
			for r := 0; r < n; r++ {
				row := blk[r*n:]
				row = row[:len(xs)] // bce: ties len(row) to len(xs); the c index needs one range check, not two
				var s float64
				for c, w := range row {
					s += float64(w) * xs[c]
				}
				xi[r] -= s
			}
		}
	}
}

// backwardRows32 is backwardRows for single-precision factor storage.
func (f *Factorization) backwardRows32(rows []int32, x, tmp []float64) {
	n := f.B
	bb := n * n
	for _, i := range rows {
		xi := x[int(i)*n : int(i)*n+n]
		for k := int(f.diagK[i]) + 1; k < int(f.RowPtr[i+1]); k++ {
			j := int(f.ColIdx[k]) * n
			blk := f.val32[k*bb : k*bb+bb]
			xs := x[j : j+n]
			for r := 0; r < n; r++ {
				row := blk[r*n:]
				row = row[:len(xs)] // bce: ties len(row) to len(xs); the c index needs one range check, not two
				var s float64
				for c, w := range row {
					s += float64(w) * xs[c]
				}
				xi[r] -= s
			}
		}
		inv := f.invDiag32[int(i)*bb : int(i)*bb+bb]
		for r := 0; r < n; r++ {
			row := inv[r*n:]
			row = row[:len(xi)] // bce: ties len(row) to len(xi); the c index needs one range check, not two
			var s float64
			for c, w := range row {
				s += float64(w) * xi[c]
			}
			tmp[r] = s
		}
		copy(xi, tmp)
	}
}

// SolveFlops returns the floating-point work of one Solve: two flops per
// stored scalar in the off-diagonal blocks plus the diagonal-inverse
// multiplies.
func (f *Factorization) SolveFlops() int64 {
	bb := int64(f.B) * int64(f.B)
	return 2*int64(len(f.ColIdx))*bb + 2*int64(f.NB)*bb
}

// SolveBytes returns the memory traffic of one Solve given the storage
// precision: every factor value read once, plus index and vector
// traffic.
func (f *Factorization) SolveBytes() int64 {
	bb := int64(f.B) * int64(f.B)
	valBytes := int64(f.BytesPerValue())
	return int64(len(f.ColIdx))*(bb*valBytes+4) + // blocks + column indices
		int64(f.NB)*bb*valBytes + // inverted diagonals
		3*int64(f.NB)*int64(f.B)*8 // b read, x written twice
}
