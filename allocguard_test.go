package sentomist_test

import (
	"runtime"
	"testing"

	"sentomist"
	"sentomist/internal/apps"
	"sentomist/internal/experiments"
	"sentomist/internal/lifecycle"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
	"sentomist/internal/synth"
	"sentomist/internal/trace"
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
// record phase on the production engine. Section task lists, staged
// medium events, and the barrier scratch are reused across sections, and
// a section allocates nothing of its own, so the whole run measures
// ~750 allocs/op and ~0.25 MB/op, with pooled truth slices and the
// ring-buffer task FIFO (~5,000 and ~0.36 MB with a reslicing FIFO).
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
				Nodes: 12, Seconds: 2, Seed: 1,
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

// maxOpenIntervalsBytes bounds Replay on openIntervalsTrace. The streamer's
// per-PC totals at ProgramLen 0xffff are about 0.8 MB and come back from
// its pool after the first call; a dense buffer per open interval, which
// this trace keeps 200 of, measured about 105 MB per op.
const maxOpenIntervalsBytes = 2_000_000

// openIntervalsTrace is a crafted trace that passes trace.Validate and
// keeps every interval open to the end: n handlers, each posting a task
// that never runs, in the largest program the format allows. Every marker
// executes a PC of its own once.
func openIntervalsTrace(n int) *trace.NodeTrace {
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 0xffff}
	for k := 0; k < n; k++ {
		for _, kind := range []trace.Kind{trace.Int, trace.PostTask, trace.Reti} {
			arg := 0
			if kind == trace.Int {
				arg = 1
			}
			i := len(nt.Markers)
			nt.Markers = append(nt.Markers, trace.Marker{
				Kind: kind, Arg: arg, Cycle: uint64(10 * (i + 1)),
				Deltas: []trace.Delta{{PC: uint16(i), Count: 1}},
			})
		}
	}
	return nt
}

// replayOpenIntervals reports Replay's allocations per op on
// openIntervalsTrace(n).
func replayOpenIntervals(t *testing.T, n int) testing.BenchmarkResult {
	nt := openIntervalsTrace(n)
	if err := (&trace.Trace{Nodes: []*trace.NodeTrace{nt}}).Validate(); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ivs, _, err := lifecycle.Replay(nt)
			if err != nil {
				b.Fatal(err)
			}
			if len(ivs) != n || ivs[0].Complete {
				b.Fatalf("%d intervals, first complete=%v; want %d open ones", len(ivs), ivs[0].Complete, n)
			}
		}
	})
	t.Logf("Replay over %d open intervals (%d markers) at ProgramLen 0xffff: %d allocs/op, %d B/op over %d op(s)",
		n, 3*n, res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
	return res
}

// TestReplayOpenIntervalsAllocBudget guards the streamer's memory bound:
// open intervals share one log of the PCs their windows touched instead of
// each holding a buffer the size of the program, so open intervals that
// never close cost what they touch.
func TestReplayOpenIntervalsAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	bytes := replayOpenIntervals(t, 200).AllocedBytesPerOp()
	if bytes > maxOpenIntervalsBytes {
		t.Errorf("B/op regressed: %d > %d (threshold)", bytes, maxOpenIntervalsBytes)
	}
}

// Linear ceiling for a first Replay on openIntervalsTrace: the per-PC
// totals plus a fixed budget per marker. Each marker adds one shared log
// entry and a third of an interval, its streaming state and its three-PC
// counter; with the slices' growth that came to about 550 B per marker at
// 12,000 markers. State per open interval for every PC its window touched
// grows with the square of the markers: it measured 84.8 MB at 3,000
// markers and 1.24 GB at 12,000. A steady-state B/op cannot show that,
// since the pool hands the grown state back to the next call.
const (
	openIntervalsBaseBytes      = 1_500_000
	openIntervalsBytesPerMarker = 1000
)

// TestReplayOpenIntervalsAllocLinear guards the streamer's memory bound at
// scale: a first Replay of a 12,000-marker trace that holds 4,000
// intervals open to its end allocates memory linear in the markers, not in
// markers times open intervals.
func TestReplayOpenIntervalsAllocLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	const n = 4000
	nt := openIntervalsTrace(n)
	if err := (&trace.Trace{Nodes: []*trace.NodeTrace{nt}}).Validate(); err != nil {
		t.Fatal(err)
	}
	// A sync.Pool's contents survive one collection, not two: the call
	// below starts from an empty streamer pool.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ivs, _, err := lifecycle.Replay(nt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != n {
		t.Fatalf("%d intervals, want %d", len(ivs), n)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	limit := uint64(openIntervalsBaseBytes + openIntervalsBytesPerMarker*3*n)
	t.Logf("first Replay over %d open intervals (%d markers) at ProgramLen 0xffff: %d B", n, 3*n, bytes)
	if bytes > limit {
		t.Errorf("first Replay allocated %d B > %d (threshold: %d B + %d B per marker)",
			bytes, limit, openIntervalsBaseBytes, openIntervalsBytesPerMarker)
	}
}

// maxNestedPendingBytes bounds a first Replay of nestedPendingTrace(1000).
// No interval of that trace completes, and an incomplete interval carries
// no counter, so the streamer keeps only the log its open window starts
// need: about 2.3 MB. Computing counters for the incomplete intervals,
// each containing the ones nested inside it, allocated 21.4 MB.
const maxNestedPendingBytes = 4_000_000

// nestedPendingTrace is a crafted trace that passes trace.Validate: d
// nested handlers that each post a task that never runs, then their d
// retis, in the largest program the format allows. Every marker executes a
// PC of its own once.
func nestedPendingTrace(d int) *trace.NodeTrace {
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 0xffff}
	mark := func(kind trace.Kind, arg int) {
		i := len(nt.Markers)
		nt.Markers = append(nt.Markers, trace.Marker{
			Kind: kind, Arg: arg, Cycle: uint64(10 * (i + 1)),
			Deltas: []trace.Delta{{PC: uint16(i), Count: 1}},
		})
	}
	for k := 0; k < d; k++ {
		mark(trace.Int, 1)
		mark(trace.PostTask, 0)
	}
	for k := 0; k < d; k++ {
		mark(trace.Reti, 0)
	}
	return nt
}

// TestReplayNestedPendingAllocBudget guards what incomplete intervals
// cost: a first Replay of 1,000 nested handlers whose posts never run
// computes no counter for them, since every miner excludes them.
func TestReplayNestedPendingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	const depth = 1000
	nt := nestedPendingTrace(depth)
	if err := (&trace.Trace{Nodes: []*trace.NodeTrace{nt}}).Validate(); err != nil {
		t.Fatal(err)
	}
	// A sync.Pool's contents survive one collection, not two: the call
	// below starts from an empty streamer pool.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ivs, _, err := lifecycle.Replay(nt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != depth || ivs[0].Complete {
		t.Fatalf("%d intervals, first complete=%v; want %d incomplete ones", len(ivs), ivs[0].Complete, depth)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("first Replay over %d nested pending handlers (%d markers) at ProgramLen 0xffff: %d B", depth, 3*depth, bytes)
	if bytes > maxNestedPendingBytes {
		t.Errorf("first Replay allocated %d B > %d (threshold)", bytes, maxNestedPendingBytes)
	}
}

// maxCaseIIIRunAllocs bounds one 15-second Case-III run recorded the way a
// campaign records it: the four sources streamed to a sink, markers
// discarded (apps.BenchmarkCTPRun's unit of work, at seed 1). It measures
// about 1,150 allocs/op with the ring-buffer task FIFO. A FIFO popped by
// reslicing reallocated its backing array whenever the popped front had
// used up its capacity: 1,455 allocs/op.
const maxCaseIIIRunAllocs = 1_300

// discardSink drops every marker a streaming recorder hands it.
type discardSink struct{}

func (discardSink) OnMark(trace.Kind, int, uint64, int, []uint16, []uint32) {}

// TestCaseIIIRunAllocBudget guards the campaign's unit of work: emulating a
// run must keep recycling its per-node state, such as the task queue,
// instead of allocating per event.
func TestCaseIIIRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI guards allocations in a non-race step")
	}
	stream := make(map[int]trace.StreamSink, len(apps.CTPSources))
	for _, id := range apps.CTPSources {
		stream[id] = discardSink{}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run, err := apps.RunCTPHeartbeat(apps.CTPConfig{
				Seconds: 15, Seed: 1, Stream: stream, DiscardMarkers: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			run.Release()
		}
	})
	allocs := res.AllocsPerOp()
	t.Logf("Case-III run (15 s, sources streamed, markers discarded): %d allocs/op, %d B/op over %d op(s)",
		allocs, res.AllocedBytesPerOp(), res.N)
	if allocs > maxCaseIIIRunAllocs {
		t.Errorf("allocs/op regressed: %d > %d (threshold)", allocs, maxCaseIIIRunAllocs)
	}
}
