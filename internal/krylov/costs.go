package krylov

// Cost formulas for the GMRES phase spans (enforced by the costconst
// analyzer): one place holds the flop and traffic counts, so the
// profiler's roofline accounting cannot disagree with itself about what
// an orthogonalization step costs.

// orthoFlops and orthoBytes: modified Gram-Schmidt step j (0-based)
// over vectors of n scalars — j+1 projections (dot+axpy), the norm, and
// the basis scale, all O(n) vector sweeps. Per projection MGS streams w
// through a 16-byte dot and a 24-byte axpy: 40(j+1) bytes per element
// before the norm (16) and scale (16).
func orthoFlops(j, n int) int64 { return (4*int64(j+1) + 3) * int64(n) }
func orthoBytes(j, n int) int64 { return (40*int64(j+1) + 32) * int64(n) }

// orthoFlopsCGS and orthoBytesCGS: fused classical Gram-Schmidt step j
// — the same 2(j+1)n projection flops and 2(j+1)n subtraction flops as
// MGS plus the norm (2n) and scale (n), but the traffic collapses: one
// MDot pass (8(j+2)n bytes: shared w plus j+1 basis loads), one MAxpy
// sweep (8(j+1)n + 16n), the norm (16n), and the scale (16n) —
// 16(j+1)+56 bytes per element against MGS's 40(j+1)+32.
func orthoFlopsCGS(j, n int) int64 { return (4*int64(j+1) + 3) * int64(n) }
func orthoBytesCGS(j, n int) int64 { return (16*int64(j+1) + 56) * int64(n) }

// orthoFlopsCGS2 and orthoBytesCGS2: the cgs2 base pass — CGS whose
// MDot batch carries w itself as one extra vector (the pre-projection
// ‖w‖² for the reorthogonalization decision): +2n flops and +8n bytes
// over plain CGS.
func orthoFlopsCGS2(j, n int) int64 { return (4*int64(j+1) + 5) * int64(n) }
func orthoBytesCGS2(j, n int) int64 { return (16*int64(j+1) + 64) * int64(n) }

// reorthFlops and reorthBytes: one full DGKS correction pass — a second
// MDot (2(j+1)n flops, 8(j+2)n bytes), a second MAxpy (2(j+1)n flops,
// (8(j+1)+16)n bytes), and the norm recomputation (2n flops, 16n bytes).
func reorthFlops(j, n int) int64 { return (4*int64(j+1) + 2) * int64(n) }
func reorthBytes(j, n int) int64 { return (16*int64(j+1) + 40) * int64(n) }

// orthoFlopsOneRound and orthoBytesOneRound: one-round oblique CGS
// step j — one MAxpy sweep (2(j+1)n flops, (8(j+1)+16)n bytes) plus the
// scale (n flops, 16n bytes). The batch is charged to the reduce phase
// by System.OrthoReduce, and the post-projection norm is derived.
func orthoFlopsOneRound(j, n int) int64 { return (2*int64(j+1) + 1) * int64(n) }
func orthoBytesOneRound(j, n int) int64 { return (8*int64(j+1) + 32) * int64(n) }

// orthoFlopsFor and orthoBytesFor dispatch the per-mechanism formulas
// for the orthogonalization span charge.
func orthoFlopsFor(mech ortho, j, n int, reorth bool) int64 {
	switch mech {
	case orthoCGS:
		return orthoFlopsCGS(j, n)
	case orthoCGS2:
		f := orthoFlopsCGS2(j, n)
		if reorth {
			f += reorthFlops(j, n)
		}
		return f
	case orthoOneRound:
		return orthoFlopsOneRound(j, n)
	}
	return orthoFlops(j, n)
}

func orthoBytesFor(mech ortho, j, n int, reorth bool) int64 {
	switch mech {
	case orthoCGS:
		return orthoBytesCGS(j, n)
	case orthoCGS2:
		b := orthoBytesCGS2(j, n)
		if reorth {
			b += reorthBytes(j, n)
		}
		return b
	case orthoOneRound:
		return orthoBytesOneRound(j, n)
	}
	return orthoBytes(j, n)
}
