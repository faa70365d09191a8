package mesh

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestMeshRoundTrip(t *testing.T) {
	orig := testWing(t, 6, 5, 4)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != orig.NumVertices() || got.NumTets() != orig.NumTets() {
		t.Fatalf("sizes changed: %d/%d vs %d/%d",
			got.NumVertices(), got.NumTets(), orig.NumVertices(), orig.NumTets())
	}
	if got.NumEdges() != orig.NumEdges() {
		t.Errorf("edges changed: %d vs %d", got.NumEdges(), orig.NumEdges())
	}
	for v := 0; v < orig.NumVertices(); v++ {
		if got.Coords[v] != orig.Coords[v] {
			t.Fatalf("coords changed at %d", v)
		}
		if got.BKind[v] != orig.BKind[v] {
			t.Fatalf("boundary kind changed at %d", v)
		}
		if got.Boundary[v] != orig.Boundary[v] {
			t.Fatalf("boundary flag changed at %d", v)
		}
	}
	// Rebuilt boundary normals roughly agree with the generator's (both
	// outward unit vectors; face-weighted vs lattice-assigned, so allow
	// generous angular tolerance).
	for v := 0; v < orig.NumVertices(); v++ {
		if !orig.Boundary[v] {
			continue
		}
		n1, n2 := orig.BNormal[v], got.BNormal[v]
		dot := n1.X*n2.X + n1.Y*n2.Y + n1.Z*n2.Z
		if dot <= 0 {
			t.Fatalf("vertex %d: rebuilt normal points away from original (dot %g)", v, dot)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"wrongheader 1\n",
		"fun3dmesh 1\nvertices -3\n",
		"fun3dmesh 1\nvertices 1\n0 0 0 9\ntets 1\n0 0 0 0\n",
		"fun3dmesh 1\nvertices 2\n0 0 0 0\n1 0 0 0\ntets 1\n0 1 2 3\n",
		"fun3dmesh 1\nvertices 1\n0 0 zebra 0\ntets 1\n0 0 0 0\n",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestReadDoesNotTrustDeclaredCounts: a header declaring more vertices
// than fit in memory fails at the first missing line instead of
// preallocating from the count (which panicked with makeslice: len out
// of range), and a merely large count fails at EOF without allocating
// for it.
func TestReadDoesNotTrustDeclaredCounts(t *testing.T) {
	cases := []string{
		"fun3dmesh 1\nvertices 140737488355328\n",
		"fun3dmesh 1\nvertices 100000000\n0 0 0 0\n",
		"fun3dmesh 1\nvertices 1\n0 0 0 0\ntets 100000000\n",
		"fun3dmesh 1\nvertices 9223372036854775807\n",
	}
	for i, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Read(strings.NewReader(c))
		runtime.ReadMemStats(&after)
		if err == nil || m != nil {
			t.Errorf("case %d: got mesh %v, err %v; want an error", i, m, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("case %d: Read allocated %d MB for a file of %d bytes", i, got>>20, len(c))
		}
	}
}

// TestReadRejectsNonFiniteCoordinates: ParseFloat accepts NaN and Inf;
// Read must not, and the error names the vertex.
func TestReadRejectsNonFiniteCoordinates(t *testing.T) {
	for _, bad := range []string{"NaN", "Inf", "-Inf", "+inf"} {
		c := "fun3dmesh 1\nvertices 2\n0 0 0 0\n1 " + bad + " 0 0\ntets 1\n0 1 0 1\n"
		_, err := Read(strings.NewReader(c))
		if !errors.Is(err, ErrNonFiniteCoord) || !strings.Contains(err.Error(), "vertex 1") {
			t.Errorf("%s: err = %v, want ErrNonFiniteCoord naming vertex 1", bad, err)
		}
	}
}

// FuzzRead: Read never panics, and returns either a mesh that passes
// Validate with finite coordinates or an error. The seed corpus
// (testdata/fuzz/FuzzRead) runs under plain go test: a small valid
// mesh from Write, a truncated file, a huge vertex count, a NaN
// coordinate and an out-of-range tet vertex. `make fuzz` explores
// beyond it.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("Read returned a mesh alongside error %v", err)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read accepted a mesh that fails Validate: %v", err)
		}
		for v, c := range m.Coords {
			for _, x := range []float64{c.X, c.Y, c.Z} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("Read accepted non-finite coordinate at vertex %d", v)
				}
			}
		}
	})
}

func TestRebuildBoundaryNormalsUnitLength(t *testing.T) {
	m := testWing(t, 5, 5, 4)
	m.RebuildBoundaryNormals()
	for v := 0; v < m.NumVertices(); v++ {
		n := m.BNormal[v]
		l := math.Sqrt(n.X*n.X + n.Y*n.Y + n.Z*n.Z)
		if m.Boundary[v] {
			if math.Abs(l-1) > 1e-12 {
				t.Fatalf("boundary vertex %d normal length %g", v, l)
			}
		}
	}
}
