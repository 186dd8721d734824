package stats

import (
	"testing"
	"testing/quick"
)

func sparseFromPairs(dim int, pairs map[int]float64) Sparse {
	s := Sparse{Dim: dim}
	for d := 0; d < dim; d++ {
		if v, ok := pairs[d]; ok && v != 0 {
			s.Idx = append(s.Idx, int32(d))
			s.Val = append(s.Val, v)
		}
	}
	return s
}

func TestDenseToSparseRoundTrip(t *testing.T) {
	v := []float64{0, 3, 0, 0, -2.5, 0, 1}
	s := DenseToSparse(v)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	got := s.Dense()
	for d := range v {
		if got[d] != v[d] {
			t.Fatalf("round trip dim %d: %g != %g", d, got[d], v[d])
		}
	}
}

// TestSparseOpsBitIdentical is the load-bearing property: the merge-based
// sparse operations must reproduce the dense ones bit-for-bit, because the
// whole pipeline's sparse path claims byte-identical rankings.
func TestSparseOpsBitIdentical(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(araw, braw []uint8) bool {
		dim := 32
		av := make([]float64, dim)
		bv := make([]float64, dim)
		for i, x := range araw {
			if i >= dim {
				break
			}
			if x%3 != 0 { // keep it sparse
				av[i] = float64(x)
			}
		}
		for i, x := range braw {
			if i >= dim {
				break
			}
			if x%4 != 0 {
				bv[i] = float64(x) / 7
			}
		}
		as, bs := DenseToSparse(av), DenseToSparse(bv)
		return SparseDot(as, bs) == Dot(av, bv) &&
			SparseSqDist(as, bs) == SqDist(av, bv)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSparseSqDistDisjointTails(t *testing.T) {
	a := sparseFromPairs(10, map[int]float64{0: 1, 1: 2})
	b := sparseFromPairs(10, map[int]float64{8: 3, 9: 4})
	want := SqDist(a.Dense(), b.Dense())
	if got := SparseSqDist(a, b); got != want {
		t.Fatalf("SparseSqDist = %g, want %g", got, want)
	}
	if got := SparseDot(a, b); got != 0 {
		t.Fatalf("SparseDot of disjoint supports = %g, want 0", got)
	}
}

func TestSparseDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SparseDot(Sparse{Dim: 3}, Sparse{Dim: 4})
}
