package stats

import (
	"math"
	"testing"
)

// TestKeyRoundTrip: SetKey recovers exactly the vector AppendKey encoded,
// bit for bit (±0, a NaN payload, subnormals), reusing the destination's
// arrays; and two vectors key alike exactly when their stored entries are
// bit-identical.
func TestKeyRoundTrip(t *testing.T) {
	vecs := []Sparse{
		{Dim: 9},
		{Idx: []int32{0}, Val: []float64{0}, Dim: 9},
		{Idx: []int32{0}, Val: []float64{math.Copysign(0, -1)}, Dim: 9},
		{Idx: []int32{2, 5, 8}, Val: []float64{1, math.SmallestNonzeroFloat64, math.MaxFloat64}, Dim: 9},
		{Idx: []int32{2, 5, 8}, Val: []float64{1, math.SmallestNonzeroFloat64, math.Float64frombits(0x7ff8000000000001)}, Dim: 9},
		{Idx: []int32{2, 5}, Val: []float64{1, math.SmallestNonzeroFloat64}, Dim: 9},
	}
	var back Sparse
	for i, v := range vecs {
		key := string(AppendKey(nil, v))
		back.SetKey(key, v.Dim)
		if back.Dim != v.Dim || len(back.Idx) != len(v.Idx) || len(back.Val) != len(v.Val) {
			t.Fatalf("vector %d: round trip %+v, want %+v", i, back, v)
		}
		for k := range v.Idx {
			if back.Idx[k] != v.Idx[k] || math.Float64bits(back.Val[k]) != math.Float64bits(v.Val[k]) {
				t.Fatalf("vector %d entry %d: round trip (%d, %v), want (%d, %v)", i, k, back.Idx[k], back.Val[k], v.Idx[k], v.Val[k])
			}
		}
		for j, w := range vecs {
			if same := key == string(AppendKey(nil, w)); same != (i == j) {
				t.Fatalf("vectors %d and %d: keys equal = %v", i, j, same)
			}
		}
	}
	idx := &back.Idx[0]
	back.SetKey(string(AppendKey(nil, vecs[1])), 9)
	if &back.Idx[0] != idx {
		t.Fatal("SetKey reallocated arrays large enough to reuse")
	}
}
