package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 255, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnRoughUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	var buckets [n]int
	for i := 0; i < draws; i++ {
		buckets[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range buckets {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d has %d draws, want about %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const draws = 50000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const draws = 50000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %v too far from 1", variance)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	const draws = 50000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) hit fraction %v", frac)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1)
	a := parent.Split(1)
	parent2 := New(1)
	b := parent2.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different split labels", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a := New(9).Split(5)
	b := New(9).Split(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestMul64(t *testing.T) {
	tests := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, tt := range tests {
		hi, lo := mul64(tt.a, tt.b)
		if hi != tt.hi || lo != tt.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", tt.a, tt.b, hi, lo, tt.hi, tt.lo)
		}
	}
}
