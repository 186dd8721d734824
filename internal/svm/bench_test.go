package svm

import (
	"fmt"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
	"sentomist/internal/synth"
)

// benchCluster builds an l-sample training set in the two regimes the miner
// sees: "distinct" (every vector unique — dedup cannot help) and "repeated"
// (reps distinct vectors tiled across l samples, the shape of instruction
// counters where most intervals execute the same code path).
func benchCluster(l, dim, reps int) []stats.Sparse {
	rng := randx.New(9)
	distinct := sparseCluster(rng, reps, dim)
	out := make([]stats.Sparse, l)
	for i := range out {
		out[i] = distinct[i%reps]
	}
	return out
}

// BenchmarkTrain measures training on both regimes. TrainSparse
// deduplicates identical vectors, so the "repeated" regime trains over
// reps×reps kernel cells instead of l×l evaluations.
func BenchmarkTrain(b *testing.B) {
	const l, dim = 512, 128
	for _, regime := range []struct {
		name string
		reps int
	}{
		{"distinct", l},
		{"repeated_16", 16},
	} {
		sparse := benchCluster(l, dim, regime.reps)
		cfg := Config{Nu: 0.05, Parallelism: 1}
		b.Run(regime.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TrainSparse(sparse, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelEval measures a single kernel evaluation: the dense RBF
// walks all dim dimensions, the sparse one only the union of nonzeros.
func BenchmarkKernelEval(b *testing.B) {
	rng := randx.New(3)
	for _, dim := range []int{64, 512} {
		sp := sparseCluster(rng, 2, dim)
		dn := densify(sp)
		k := RBF{Gamma: 1.0 / float64(dim)}
		b.Run(fmt.Sprintf("dim_%d/dense", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFloat = k.Eval(dn[0], dn[1])
			}
		})
		b.Run(fmt.Sprintf("dim_%d/sparse", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFloat = k.EvalSparse(sp[0], sp[1])
			}
		})
	}
}

// BenchmarkTrainingDecisions compares Gram-reuse scoring of all training
// rows against fresh per-row kernel evaluation (what callers had to do
// before Model cached its training decisions).
func BenchmarkTrainingDecisions(b *testing.B) {
	sparse := benchCluster(512, 128, 512)
	model, err := TrainSparse(sparse, Config{Nu: 0.05, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gram_reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkSlice = model.TrainingDecisions()
		}
	})
	b.Run("fresh_eval", func(b *testing.B) {
		out := make([]float64, len(sparse))
		for i := 0; i < b.N; i++ {
			for j, s := range sparse {
				out[j] = model.DecisionSparse(s)
			}
			sinkSlice = out
		}
	})
}

var (
	sinkFloat float64
	sinkSlice []float64
)

// BenchmarkColumnFill measures one kernel column fill, the cached path's
// miss cost, over the online benchmark's campaign counters (BlockJitter:
// thousands of distinct counters over a dozen index lists), on one worker
// and on two. Each op fills the column of the next distinct counter.
func BenchmarkColumnFill(b *testing.B) {
	l, dim := 10000, 2048
	if testing.Short() {
		l, dim = 1500, 512
	}
	samples := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: 11, Samples: l, Dim: dim, BlockJitter: true, AnomalyRate: -1,
	})
	kernel := RBF{Gamma: 1 / float64(dim)}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			src := newSparseColSource(samples, kernel, workers)
			dst := make([]float64, l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.fill(i%src.distinct(), dst)
			}
			b.ReportMetric(float64(src.distinct()), "distinct")
			b.ReportMetric(float64(len(src.members)), "shapes")
		})
	}
}
