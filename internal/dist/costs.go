package dist

// Cost formulas for the measured phase profiler. Every Begin/End span
// in this package charges its flops and bytes through these functions
// (the costconst analyzer enforces it), so the counts the profiler
// reports cannot drift from the formulas the roofline accounting and
// the virtual-machine model assume.

// haloWireBytes is the wire traffic of one ghost scatter: each send and
// receive index list crossing this rank's boundary moves B doublewords
// per block row, counted in both directions.
func (h *Halo) haloWireBytes() int64 {
	var wire int64
	for pi := range h.peers {
		wire += int64(len(h.sendIdx[pi])+len(h.recvIdx[pi])) * int64(h.b) * 8
	}
	return wire
}

// haloPackBytes is the local memory traffic of packing the outgoing
// boundary values into the staging buffers: one read of the source rows
// and one write of the staging copy per sent block row.
func (h *Halo) haloPackBytes() int64 {
	var rows int64
	for pi := range h.peers {
		rows += int64(len(h.sendIdx[pi]))
	}
	return rows * int64(h.b) * 16
}

// haloUnpackBytes is the local memory traffic of unpacking received
// payloads into the ghost region: one read of the payload and one write
// of the ghost rows per received block row.
func (h *Halo) haloUnpackBytes() int64 {
	var rows int64
	for pi := range h.peers {
		rows += int64(len(h.recvIdx[pi]))
	}
	return rows * int64(h.b) * 16
}

// dotFlops and dotBytes: one multiply-add pass over two local vectors
// of n scalars.
func dotFlops(n int) int64 { return 2 * int64(n) }
func dotBytes(n int) int64 { return 16 * int64(n) }

// mdotFlops and mdotBytes: k fused local inner products against one
// shared vector of n local scalars — 2k flops per element; one pass
// over the shared vector plus one load per basis vector. The batched
// global combine rides the same span (reduce phase), like Dot's.
func mdotFlops(k, n int) int64 { return 2 * int64(k) * int64(n) }
func mdotBytes(k, n int) int64 { return 8 * int64(k+1) * int64(n) }

// orthoReduceFlops and orthoReduceBytes: the k-vector fused batch plus
// the one extra basis-norm product of a Gram-Schmidt step's single
// synchronization round.
func orthoReduceFlops(k, n int) int64 { return 2 * int64(k+1) * int64(n) }
func orthoReduceBytes(k, n int) int64 { return (8*int64(k) + 24) * int64(n) }
