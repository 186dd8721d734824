package outlier

import (
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
)

// TestOneClassSVMScoreSparseMatchesScore: scoring dense samples must
// equal scoring their sparse form bit-for-bit — it is what lets core.Mine
// rank sparse features without perturbing rankings. (Training on sparse
// samples equals per-sample dense training; the svm package's
// trainReference oracle pins that.)
func TestOneClassSVMScoreSparseMatchesScore(t *testing.T) {
	rng := randx.New(77)
	n, dim := 90, 60
	sparse := make([]stats.Sparse, n)
	dense := make([][]float64, n)
	for i := range sparse {
		v := make([]float64, dim)
		for _, d := range []int{2, 17, 31, 44} {
			v[d] = 3 + rng.NormFloat64()*0.2
		}
		if i%11 == 0 { // a few outliers on a different path
			v[55] = 9
		}
		dense[i] = v
		sparse[i] = stats.DenseToSparse(v)
	}
	for _, det := range []OneClassSVM{
		{},
		{Nu: 0.1},
		{Kernel: svm.Linear{}, Parallelism: 4},
	} {
		ds, err := det.Score(dense)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := det.ScoreSparse(sparse)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds {
			if ds[i] != ss[i] {
				t.Fatalf("det %+v sample %d: dense %v != sparse %v", det, i, ds[i], ss[i])
			}
		}
	}
}

func TestOneClassSVMScoreSparseEmpty(t *testing.T) {
	var d OneClassSVM
	if _, err := d.ScoreSparse(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}
