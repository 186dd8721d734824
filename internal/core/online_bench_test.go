package core

import (
	"testing"

	"sentomist/internal/lifecycle"
	"sentomist/internal/synth"
)

// onlineBenchSize mirrors svm's largeCampaignSize: the full campaign-scale
// regime (l = 10000, the acceptance bar for the warm-refit claim), or a
// small problem in -short mode for CI's -benchmem smoke.
func onlineBenchSize(short bool) (l, dim int) {
	if short {
		return 1500, 512
	}
	return 10000, 2048
}

// onlineBenchBatches wraps a block-jittered large campaign in nb finished-run
// batches: mostly-distinct counters (dedup cannot collapse the kernel) over a
// small per-dimension value set (the streaming min/max saturates early, so
// cached kernel columns stay valid across refits).
func onlineBenchBatches(l, dim, nb int) []Batch {
	counters := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: 11, Samples: l, Dim: dim, BlockJitter: true, AnomalyRate: -1,
	})
	per := (l + nb - 1) / nb
	var out []Batch
	for start := 0; start < l; start += per {
		end := start + per
		if end > l {
			end = l
		}
		b := Batch{Run: len(out) + 1}
		for i := start; i < end; i++ {
			b.Intervals = append(b.Intervals, lifecycle.Interval{
				IRQ: 1, Seq: i, Node: 1, Complete: true, EndsWithTask: true,
			})
			b.Counters = append(b.Counters, counters[i])
		}
		out = append(out, b)
	}
	return out
}

// BenchmarkOnlineMine measures the incremental-refit path: 16 batches
// ingested with a refit every 4 at a kernel-cache budget of 25% of the
// dense Gram. Each refit reuses the previous optimum (fewer SMO
// iterations), the surviving cached columns (extended lazily with exact
// shape-planned fills for the new groups), and the resident scaled
// distinct counters. The disk-rows variant keeps the intervals' metadata
// rows in an on-disk row file and reads back only each refit's top-K rows.
func BenchmarkOnlineMine(b *testing.B) {
	l, dim := onlineBenchSize(testing.Short())
	const nBatches = 16
	batches := onlineBenchBatches(l, dim, nBatches)
	cacheBytes := int64(8) * int64(l) * int64(l) / 4
	for _, variant := range []struct {
		name string
		disk bool
	}{
		{name: "warm"},
		{name: "disk-rows", disk: true},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			var iters, refits, rebuilds int
			var hits, misses int64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				spill := ""
				if variant.disk {
					spill = b.TempDir()
				}
				m, err := NewOnlineMiner(OnlineConfig{
					Config:     Config{IRQ: 1, SVMCacheBytes: cacheBytes},
					RefitEvery: nBatches / 4,
					SpillDir:   spill,
					OnRanking: func(r *OnlineRanking) {
						refits++
						iters += r.Iters
						hits += r.CacheHits
						misses += r.CacheMisses
						if r.Rebuilt {
							rebuilds++
						}
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches {
					if err := m.Add(batch); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if refits > 0 {
				b.ReportMetric(float64(iters)/float64(refits), "iters/refit")
				b.ReportMetric(float64(rebuilds)/float64(b.N), "rebuilds/run")
				if hits+misses > 0 {
					b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
				}
			}
		})
	}
}

// BenchmarkOnlineIngest isolates the streaming ingest path — filter,
// content-addressed counter store, scale statistics, row file on disk —
// with refits disabled. This is the
// between-refit resident footprint the allocation guard bounds.
func BenchmarkOnlineIngest(b *testing.B) {
	l, dim := onlineBenchSize(testing.Short())
	batches := onlineBenchBatches(l, dim, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m, err := NewOnlineMiner(OnlineConfig{
			Config:   Config{IRQ: 1},
			SpillDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := m.Add(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
