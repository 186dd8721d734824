package outlier

import (
	"math"
	"testing"
	"testing/quick"

	"sentomist/internal/randx"
)

// plantedBatch returns n inliers around the origin plus one planted
// outlier at distance d, with the outlier at index n.
func plantedBatch(seed uint64, n int, d float64) [][]float64 {
	rng := randx.New(seed)
	out := make([][]float64, 0, n+1)
	for i := 0; i < n; i++ {
		out = append(out, []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
	}
	return append(out, []float64{d, d, d})
}

func detectors() []Detector {
	return []Detector{
		OneClassSVM{},
		PCA{},
		Mahalanobis{},
	}
}

// lineBatch returns n inliers on a 1-D subspace of R^3 plus one planted
// off-subspace outlier at index n — the anomaly shape PCA reconstruction
// is built to catch.
func lineBatch(seed uint64, n int) [][]float64 {
	rng := randx.New(seed)
	out := make([][]float64, 0, n+1)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64() * 3
		out = append(out, []float64{v, 2 * v, 0.5 * v})
	}
	return append(out, []float64{2, -6, 3})
}

// TestEveryDetectorFindsPlantedOutlier plants, per detector, an anomaly of
// the shape that detector models: a far point for the SVM, an
// off-subspace point for PCA, a large per-dimension z-score for diagonal
// Mahalanobis. (No single anomaly shape is visible to all three — which is
// precisely the paper's argument for the SVM's nonlinear boundary.)
func TestEveryDetectorFindsPlantedOutlier(t *testing.T) {
	tests := []struct {
		det     Detector
		samples [][]float64
		planted int
	}{
		{OneClassSVM{}, plantedBatch(1, 80, 8), 80},
		{PCA{}, lineBatch(2, 80), 80},
		{Mahalanobis{}, plantedBatch(3, 80, 8), 80},
	}
	for _, tt := range tests {
		t.Run(tt.det.Name(), func(t *testing.T) {
			scores, err := tt.det.Score(tt.samples)
			if err != nil {
				t.Fatal(err)
			}
			if len(scores) != len(tt.samples) {
				t.Fatalf("%d scores for %d samples", len(scores), len(tt.samples))
			}
			order := Rank(scores)
			if order[0] != tt.planted {
				t.Fatalf("planted outlier ranked %d-th, scores[planted]=%v",
					indexOf(order, tt.planted)+1, scores[tt.planted])
			}
		})
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func TestEveryDetectorErrorsOnEmpty(t *testing.T) {
	for _, det := range detectors() {
		if _, err := det.Score(nil); err == nil {
			t.Errorf("%s accepted an empty batch", det.Name())
		}
	}
}

func TestDetectorsDeterministic(t *testing.T) {
	samples := plantedBatch(2, 50, 6)
	for _, det := range detectors() {
		s1, err := det.Score(samples)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := det.Score(samples)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("%s not deterministic at %d", det.Name(), i)
			}
		}
	}
}

func TestNormalizeLargestPositiveIsOne(t *testing.T) {
	scores := []float64{-3, 0.5, 2, 1}
	Normalize(scores)
	if scores[2] != 1 {
		t.Fatalf("largest positive = %v, want 1", scores[2])
	}
	if scores[0] != -1.5 {
		t.Fatalf("negative scaled to %v, want -1.5", scores[0])
	}
}

func TestNormalizeAllNegative(t *testing.T) {
	scores := []float64{-4, -2, -1}
	Normalize(scores)
	if scores[0] != -1 {
		t.Fatalf("scaled by max abs: %v", scores)
	}
	if !(scores[0] < scores[1] && scores[1] < scores[2]) {
		t.Fatalf("order destroyed: %v", scores)
	}
}

func TestNormalizeAllZero(t *testing.T) {
	scores := []float64{0, 0}
	Normalize(scores)
	if scores[0] != 0 || scores[1] != 0 {
		t.Fatalf("zeros changed: %v", scores)
	}
}

// TestNormalizePreservesOrder: normalization never changes the ranking.
func TestNormalizePreservesOrder(t *testing.T) {
	check := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		before := Rank(append([]float64(nil), raw...))
		scores := append([]float64(nil), raw...)
		Normalize(scores)
		after := Rank(scores)
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRankAscendingAndStable(t *testing.T) {
	scores := []float64{0.5, -1, 0.5, -2}
	order := Rank(scores)
	want := []int{3, 1, 0, 2} // ties broken by original index
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestOneClassSVMNuClamping(t *testing.T) {
	// Tiny batches force nu below 1/l; the detector must clamp rather
	// than fail.
	samples := [][]float64{{1, 1}, {1.1, 0.9}, {0.9, 1.1}}
	if _, err := (OneClassSVM{Nu: 0.01}).Score(samples); err != nil {
		t.Fatal(err)
	}
}

func TestPCAVarianceFractionControlsSubspace(t *testing.T) {
	// Data on a line plus one off-line outlier: PCA with any fraction
	// must flag the off-line point.
	var samples [][]float64
	for i := 0; i < 50; i++ {
		v := float64(i)
		samples = append(samples, []float64{v, 2 * v, 0.5 * v})
	}
	samples = append(samples, []float64{25, -50, 12})
	scores, err := (PCA{VarFraction: 0.9}).Score(samples)
	if err != nil {
		t.Fatal(err)
	}
	if Rank(scores)[0] != 50 {
		t.Fatal("off-subspace point not ranked first")
	}
}

func TestMahalanobisScalesByVariance(t *testing.T) {
	// Two dimensions with very different variances: a deviation of 3 in
	// the tight dimension must outrank a deviation of 3 in the loose one.
	rng := randx.New(9)
	var samples [][]float64
	for i := 0; i < 100; i++ {
		samples = append(samples, []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 10})
	}
	tight := []float64{3, 0}
	loose := []float64{0, 3}
	samples = append(samples, tight, loose)
	scores, err := (Mahalanobis{}).Score(samples)
	if err != nil {
		t.Fatal(err)
	}
	if scores[100] >= scores[101] {
		t.Fatalf("tight-dim deviation (%v) not more anomalous than loose-dim (%v)",
			scores[100], scores[101])
	}
}
