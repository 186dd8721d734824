package sentomist_test

import (
	"testing"

	"sentomist"
	"sentomist/internal/experiments"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
	"sentomist/internal/synth"
)

// Allocation-profile thresholds for the streaming Case-I end-to-end op
// (five 10-second runs recorded, anatomized, featured, and mined via the
// campaign engine). The canonical measurement is in BENCH_PR3.json
// (4,511 allocs/op, ~2.94 MB/op); the thresholds carry ~40% headroom for
// runner variance. If a change regresses past them, either fix the
// allocation or consciously re-baseline both this file and
// BENCH_PR3.json.
const (
	maxStreamingAllocsPerOp = 6_500
	maxStreamingBytesPerOp  = 4_200_000
)

// TestStreamingAllocBudget guards the streaming pipeline's allocation
// profile in CI: the pooled, online path must not quietly regress back
// toward materialized-trace costs.
func TestStreamingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.CaseICampaign(experiments.CaseISeedBase); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("streaming Case-I end to end: %d allocs/op, %d B/op over %d op(s)", allocs, bytes, res.N)
	if allocs > maxStreamingAllocsPerOp {
		t.Errorf("allocs/op regressed: %d > %d (threshold; see BENCH_PR3.json)", allocs, maxStreamingAllocsPerOp)
	}
	if bytes > maxStreamingBytesPerOp {
		t.Errorf("B/op regressed: %d > %d (threshold; see BENCH_PR3.json)", bytes, maxStreamingBytesPerOp)
	}
}

// Cached-training allocation thresholds: 1500 distinct counters trained
// through a 4 MiB kernel column cache. The dense Gram at this size is
// 8·1500² = 18 MB; the cached path's whole-training footprint (columns +
// solver state + model) measures ~4.6 MB (BENCH_PR4.json), and the ceiling
// carries headroom for runner variance while staying far under the dense
// matrix alone.
const (
	cachedTrainSamples   = 1500
	cachedTrainCacheMiB  = 4
	maxCachedTrainBytes  = 8_000_000
	maxCachedTrainAllocs = 6_000
)

// Online-ingest allocation thresholds: 1500 block-jittered counters
// streamed through the filter → content-addressed store → row-file path
// with refits disabled (the between-refit resident regime). The canonical
// measurement is ~4.15 MB/op and ~4,800 allocs/op (BENCH_PR7.json; the
// content-addressed store, which copies each distinct counter once, now
// measures ~1.7 MB/op and ~1,200 allocs/op), and the ceilings carry ~40%
// headroom for runner variance.
const (
	onlineIngestSamples   = 1500
	onlineIngestDim       = 512
	onlineIngestBatches   = 16
	maxOnlineIngestBytes  = 6_500_000
	maxOnlineIngestAllocs = 7_000
)

// onlineGuardBatches builds the shared batch stream both online allocation
// guards ingest: block-jittered counters split evenly across batches.
// OnlineMiner.Add copies counters, so the same batches can be re-ingested
// every benchmark iteration.
func onlineGuardBatches() []sentomist.MineBatch {
	counters := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: 11, Samples: onlineIngestSamples, Dim: onlineIngestDim,
		BlockJitter: true, AnomalyRate: -1,
	})
	per := (onlineIngestSamples + onlineIngestBatches - 1) / onlineIngestBatches
	var batches []sentomist.MineBatch
	for start := 0; start < onlineIngestSamples; start += per {
		end := start + per
		if end > onlineIngestSamples {
			end = onlineIngestSamples
		}
		b := sentomist.MineBatch{Run: len(batches) + 1}
		for i := start; i < end; i++ {
			b.Intervals = append(b.Intervals, sentomist.Interval{
				IRQ: 1, Seq: i, Node: 1, Complete: true, EndsWithTask: true,
			})
			b.Counters = append(b.Counters, counters[i])
		}
		batches = append(batches, b)
	}
	return batches
}

// TestOnlineIngestAllocBudget guards the online miner's ingest path: with
// rows spilling to disk, allocation traffic must stay proportional to the
// distinct counters ingested (one copy each) plus the row buffer, not creep
// toward holding the scaled training set resident between refits.
func TestOnlineIngestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	batches := onlineGuardBatches()
	spillDir := t.TempDir()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := sentomist.NewOnlineMiner(sentomist.OnlineMineConfig{
				Config:   sentomist.MineConfig{IRQ: 1},
				SpillDir: spillDir,
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
	})
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("online ingest (l=%d, disk spill): %d allocs/op, %d B/op over %d op(s)",
		onlineIngestSamples, allocs, bytes, res.N)
	if bytes > maxOnlineIngestBytes {
		t.Errorf("B/op regressed: %d > %d (threshold; see BENCH_PR7.json)", bytes, maxOnlineIngestBytes)
	}
	if allocs > maxOnlineIngestAllocs {
		t.Errorf("allocs/op regressed: %d > %d (threshold; see BENCH_PR7.json)", allocs, maxOnlineIngestAllocs)
	}
}

// Online-refit allocation thresholds: the ingest stream above re-mined with
// a refit every other batch (8 refits per op, l growing to 1500) and the
// scale bounds pinned so every refit after the first scales only the new
// distinct counters. The refit path reuses the resident scaled vectors,
// the member view, the carried kernel columns, and the per-state bound
// scratch; what remains is the solve itself plus scaling the new distinct
// counters. The canonical measurement is ~24.3 MB/op and
// ~10,500 allocs/op (BENCH_PR10.json; the content-addressed store now
// measures ~8.4 MB/op and ~5,700 allocs/op); the ceilings carry ~40%
// headroom for runner variance.
const (
	onlineRefitEvery     = 2
	maxOnlineRefitBytes  = 34_000_000
	maxOnlineRefitAllocs = 15_000
)

// TestOnlineRefitAllocBudget guards the delta-refit path: refitting every
// other batch must not allocate per-refit copies of the whole training set
// (resident scaled vectors, the member view and bound scratch are reused),
// only the new distinct counters' scaled vectors and the solver's own
// working set.
func TestOnlineRefitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	batches := onlineGuardBatches()
	// Pin the scale bounds in the first batch — one sample at every
	// dimension's global maximum plus one empty sample — so refits after the
	// first see bitwise-stable bounds and take the delta path.
	hi := make([]float64, onlineIngestDim)
	for _, b := range batches {
		for _, c := range b.Counters {
			for k, d := range c.Idx {
				if c.Val[k] > hi[d] {
					hi[d] = c.Val[k]
				}
			}
		}
	}
	full := stats.Sparse{Dim: onlineIngestDim}
	for d, v := range hi {
		if v > 0 {
			full.Idx = append(full.Idx, int32(d))
			full.Val = append(full.Val, v)
		}
	}
	pin := batches[0]
	batches[0] = sentomist.MineBatch{
		Run: pin.Run,
		Intervals: append([]sentomist.Interval{
			{IRQ: 1, Seq: onlineIngestSamples + 1, Node: 1, Complete: true, EndsWithTask: true},
			{IRQ: 1, Seq: onlineIngestSamples + 2, Node: 1, Complete: true, EndsWithTask: true},
		}, pin.Intervals...),
		Counters: append([]stats.Sparse{full, {Dim: onlineIngestDim}}, pin.Counters...),
	}
	spillDir := t.TempDir()
	var refits, deltas int
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refits, deltas = 0, 0
			m, err := sentomist.NewOnlineMiner(sentomist.OnlineMineConfig{
				Config:     sentomist.MineConfig{IRQ: 1},
				SpillDir:   spillDir,
				RefitEvery: onlineRefitEvery,
				TopK:       10,
				OnRanking: func(r *sentomist.OnlineRanking) {
					refits++
					if r.Delta {
						deltas++
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
	})
	if refits == 0 || deltas != refits-1 {
		t.Fatalf("%d of %d refits were deltas, want all but the first", deltas, refits)
	}
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("online delta refits (l=%d, refit every %d batches, %d refits/op): %d allocs/op, %d B/op over %d op(s)",
		onlineIngestSamples, onlineRefitEvery, refits, allocs, bytes, res.N)
	if bytes > maxOnlineRefitBytes {
		t.Errorf("B/op regressed: %d > %d (threshold; see BENCH_PR10.json)", bytes, maxOnlineRefitBytes)
	}
	if allocs > maxOnlineRefitAllocs {
		t.Errorf("allocs/op regressed: %d > %d (threshold; see BENCH_PR10.json)", allocs, maxOnlineRefitAllocs)
	}
}

// Parallel-record allocation thresholds: one 2-second, 12-node multihop
// record phase with conservative-lookahead sections on. Section task
// lists, staged medium events, and the barrier scratch are reused across
// sections, and a section allocates nothing of its own, so the whole run
// measures ~5,200 allocs/op and ~1.4 MB/op, the same as with sections off.
// The ceilings date from a section engine that allocated per pass; they
// stay as an upper bound.
const (
	maxParallelRecordAllocs = 18_000
	maxParallelRecordBytes  = 2_700_000
)

// TestParallelRecordAllocBudget guards the parallel engine's allocation
// profile: sections and horizon barriers must keep recycling their
// per-sim scratch, not allocate per section or per staged event.
func TestParallelRecordAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := synth.Multihop(synth.MultihopConfig{
				Nodes: 12, Seconds: 2, Seed: 1, NodeWorkers: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			if r.Stats.ParallelSections == 0 {
				b.Fatal("no parallel sections ran; the guard is not measuring the parallel path")
			}
			r.Release()
		}
	})
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("parallel multihop record (12 nodes, 2 s, sections on): %d allocs/op, %d B/op over %d op(s)",
		allocs, bytes, res.N)
	if allocs > maxParallelRecordAllocs {
		t.Errorf("allocs/op regressed: %d > %d (threshold)", allocs, maxParallelRecordAllocs)
	}
	if bytes > maxParallelRecordBytes {
		t.Errorf("B/op regressed: %d > %d (threshold)", bytes, maxParallelRecordBytes)
	}
}

// TestCachedTrainingAllocBudget guards the on-demand kernel cache's
// allocation profile: training at a fixed budget must stay bounded by the
// budget, not creep back toward materializing the l×l Gram.
func TestCachedTrainingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	samples := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: 11, Samples: cachedTrainSamples, Dim: 512, Distinct: true,
	})
	cfg := svm.Config{Nu: 0.05, CacheBytes: cachedTrainCacheMiB << 20}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := svm.TrainSparse(samples, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	allocs := res.AllocsPerOp()
	bytes := res.AllocedBytesPerOp()
	t.Logf("cached training (l=%d, %d MiB cache): %d allocs/op, %d B/op over %d op(s)",
		cachedTrainSamples, cachedTrainCacheMiB, allocs, bytes, res.N)
	if bytes > maxCachedTrainBytes {
		t.Errorf("B/op regressed: %d > %d (threshold; see BENCH_PR4.json)", bytes, maxCachedTrainBytes)
	}
	if allocs > maxCachedTrainAllocs {
		t.Errorf("allocs/op regressed: %d > %d (threshold; see BENCH_PR4.json)", allocs, maxCachedTrainAllocs)
	}
}
