// Package costsync exercises the costsync analyzer: the registry in
// internal/lint/costsync.go pins Dot to dotFlops (which deliberately
// overcharges — a finding), Axpy and the zero-seeded SeededAxpy to
// axpyFlops (correct — silent), and fullFlops to subsetFlops
// (deliberately unequal — a finding).
package costsync

// Dot does 2 flops per element; dotFlops below claims 3.
func Dot(x, y []float64) float64 { // want "does 2 flops per unit of n .* charges 3"
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// dotFlops deliberately disagrees with the kernel above.
func dotFlops(n int) int64 { return 3 * int64(n) }

// Axpy does 2 flops per element; axpyFlops agrees.
func Axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

func axpyFlops(n int) int64 { return 2 * int64(n) }

// SeededAxpy starts each update from a zero seed, as the fused kernels
// do; the seed is not work, so axpyFlops agrees.
func SeededAxpy(a float64, x, y []float64) {
	for i := range x {
		y[i] -= 0 + a*x[i]
	}
}

// fullFlops and subsetFlops model a full sweep and the subset sweep
// covering it; they must agree, and deliberately do not.
func fullFlops(edges int) int64 { return 10 * int64(edges) }

func subsetFlops(nEdges int) int64 { return 12 * int64(nEdges) } // want "disagree under matched assignments"
