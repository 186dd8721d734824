package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sentomist/internal/apps"
	"sentomist/internal/campaign"
	"sentomist/internal/core"
	"sentomist/internal/dev"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/sim"
	"sentomist/internal/stats"
	"sentomist/internal/synth"
	"sentomist/internal/trace"
)

// sizes sets how much work one session of each workload does.
type sizes struct {
	ctpRuns      int     // Case-III runs per campaign
	ctpSeconds   float64 // simulated seconds per run
	ctpRefit     int     // batches (one per source node) between refits
	chainNodes   int     // multihop chain length
	chainSeconds float64 // simulated seconds of the recording
	largeL       int     // LargeCampaign intervals
	largeDim     int     // LargeCampaign program length
	largeBatches int     // arrival batches
}

var sizePresets = map[string]sizes{
	"full": {ctpRuns: 200, ctpSeconds: 15, ctpRefit: 100, chainNodes: 12, chainSeconds: 30, largeL: 10000, largeDim: 2048, largeBatches: 16},
	"tiny": {ctpRuns: 6, ctpSeconds: 3, ctpRefit: 8, chainNodes: 4, chainSeconds: 0.5, largeL: 300, largeDim: 128, largeBatches: 4},
}

// sample holds one session's measurements by metric name.
type sample map[string]float64

// A workload builds a session's inputs from its seed, runs the timed
// session over them, and checks the last session's output against an
// independent path of the program.
type workload interface {
	// setup builds the next session's inputs before the timed region and
	// returns how long building them took: one setup_s sample.
	setup() (time.Duration, error)
	// session runs the timed region. With a non-nil tracer it records
	// spans under root and adds the per-layer metrics to the sample.
	session(tr *tracer, root int) (sample, error)
	// ops is how many operations (runs, Adds, finalizes) a session attempts.
	ops() int
	// check verifies the last session's output; it runs untimed.
	check() error
}

func newWorkload(name string, seed uint64, sz sizes, scratch string) (workload, error) {
	switch name {
	case "ctp-campaign":
		seeds := make([]uint64, sz.ctpRuns)
		for i := range seeds {
			seeds[i] = mix(seed, uint64(i))
		}
		return &ctpCampaign{sz: sz, seeds: seeds, spill: scratch + "/spill"}, nil
	case "chain-record":
		// The middle relay: how long anatomizing a relay's intervals takes
		// depends on its place in the chain, so it is fixed, not drawn.
		return &chainRecord{sz: sz, seed: seed, relay: sz.chainNodes / 2}, nil
	case "large-online":
		return &largeOnline{sz: sz, seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ctp-campaign, chain-record or large-online)", name)
}

// mix derives the i-th per-run seed from the workload seed (splitmix64).
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// ---- ctp-campaign ----------------------------------------------------------

// ctpCampaign is the production campaign path: Case-III CTP-heartbeat runs
// on campaign.Mine's default run pool, source nodes streamed into the
// online miner with an on-disk spill, markers discarded.
type ctpCampaign struct {
	sz    sizes
	seeds []uint64
	spill string
	build time.Duration // last scenario build
	final *core.Ranking
}

func (w *ctpCampaign) setup() (time.Duration, error) {
	t := time.Now()
	if err := os.MkdirAll(w.spill, 0o755); err != nil {
		return 0, err
	}
	// A zero-length run builds the nine-node scenario: firmware assembly
	// and predecode (cached by the program after its first build) and node
	// construction.
	b := time.Now()
	run, err := apps.RunCTPHeartbeat(apps.CTPConfig{Seed: w.seeds[0]})
	w.build = time.Since(b)
	if err != nil {
		return 0, err
	}
	run.Release()
	return time.Since(t), nil
}

func (w *ctpCampaign) ops() int { return w.sz.ctpRuns + 1 }

// runs builds the campaign's run functions. Each records the time it
// returned into lastRun; traced runs also sum their emulator counters into
// agg and record spans under parent.
func (w *ctpCampaign) runs(tr *tracer, parent int, lastRun *time.Time, agg *emuStats) []campaign.RunFunc {
	var mu sync.Mutex
	runs := make([]campaign.RunFunc, len(w.seeds))
	for i, seed := range w.seeds {
		seed := seed
		runs[i] = func(attach campaign.Attach) error {
			id := tr.begin("campaign.run", parent)
			var markers atomic.Int64
			stream := make(map[int]trace.StreamSink, len(apps.CTPSources))
			for _, node := range apps.CTPSources {
				sink := attach(node)
				if tr != nil {
					sink = countingSink{sink, &markers}
				}
				stream[node] = sink
			}
			sid := tr.begin("apps.RunCTPHeartbeat", id)
			run, err := apps.RunCTPHeartbeat(apps.CTPConfig{
				Seconds: w.sz.ctpSeconds, Seed: seed, Stream: stream, DiscardMarkers: true,
			})
			tr.end(sid)
			if err == nil {
				if tr != nil {
					mu.Lock()
					agg.add(run, w.sz.ctpSeconds)
					agg.markers += markers.Load()
					mu.Unlock()
				}
				run.Release()
			}
			now := time.Now()
			mu.Lock()
			if now.After(*lastRun) {
				*lastRun = now
			}
			mu.Unlock()
			tr.end(id)
			return err
		}
	}
	return runs
}

func (w *ctpCampaign) session(tr *tracer, root int) (sample, error) {
	var (
		lastRun, firstTop time.Time
		agg               emuStats
		refits            refitStats
	)
	parent := tr.begin("campaign.Mine", root)
	runs := w.runs(tr, parent, &lastRun, &agg)
	online := &campaign.OnlineOptions{
		RefitEvery: w.sz.ctpRefit,
		TopK:       10,
		SpillDir:   w.spill,
		OnRanking: func(r *core.OnlineRanking) {
			if firstTop.IsZero() {
				firstTop = time.Now()
			}
			refits.add(r)
		},
	}
	start := time.Now()
	r, err := campaign.Mine(campaign.Config{IRQ: dev.IRQTimer0, Nodes: apps.CTPSources, Online: online}, runs)
	end := time.Now()
	tr.end(parent)
	if err != nil {
		return nil, err
	}
	w.final = r
	wall := end.Sub(start).Seconds()
	s := sample{
		"wall_s":       wall,
		"tail_s":       end.Sub(lastRun).Seconds(),
		"first_topk_s": firstTop.Sub(start).Seconds(),
		"runs_per_s":   float64(len(runs)) / wall,
	}
	if tr != nil {
		spans := tr.sessionSpans(tr.session)
		runMS := durations(spans, "campaign.run")
		for i := range runMS {
			runMS[i] *= 1e3
		}
		s["campaign.run_ms.p50"] = quantile(runMS, 0.5)
		s["campaign.run_ms.p90"] = quantile(runMS, 0.9)
		s["campaign.busy_ratio"] = sum(runMS) / 1e3 / (float64(min(runtime.GOMAXPROCS(0), len(runs))) * wall)
		s["apps.build_ms"] = w.build.Seconds() * 1e3
		s["sim.run_s"] = sum(durations(spans, "apps.RunCTPHeartbeat"))
		agg.into(s)
		refits.into(s)
		s["lifecycle.intervals"] = float64(len(r.Samples))
		s["lifecycle.excluded"] = float64(r.Excluded)
	}
	return s, nil
}

// check compares the online ranking with the one-shot campaign.Mine path
// over the same seeds.
func (w *ctpCampaign) check() error {
	var lastRun time.Time
	want, err := campaign.Mine(campaign.Config{IRQ: dev.IRQTimer0, Nodes: apps.CTPSources}, w.runs(nil, 0, &lastRun, nil))
	if err != nil {
		return fmt.Errorf("one-shot campaign: %w", err)
	}
	return sameRanking(w.final, want)
}

// countingSink forwards markers to the streamer and counts them (traced
// sessions only: the markers themselves are discarded).
type countingSink struct {
	next trace.StreamSink
	n    *atomic.Int64
}

func (c countingSink) OnMark(kind trace.Kind, arg int, cycle uint64, instance int, touched []uint16, counts []uint32) {
	c.n.Add(1)
	c.next.OnMark(kind, arg, cycle, instance, touched, counts)
}

// ---- chain-record ----------------------------------------------------------

// chainRecord is one long materialized recording of the multihop chain
// with node-level parallelism, then core.Mine of one relay's RadioRX
// intervals through a timed one-class-SVM detector.
type chainRecord struct {
	sz      sizes
	seed    uint64
	relay   int
	scn     *apps.Scenario
	build   time.Duration
	run     *apps.Run
	ranking *core.Ranking
}

func (w *chainRecord) cfg(workers int) synth.MultihopConfig {
	return synth.MultihopConfig{Nodes: w.sz.chainNodes, Seconds: w.sz.chainSeconds, Seed: w.seed, NodeWorkers: workers}
}

func (w *chainRecord) setup() (time.Duration, error) {
	// Recycle the previous recording into the trace pools, as a campaign
	// worker would; this is not input building, so it is not timed.
	if w.run != nil {
		w.run.Release()
		w.run = nil
	}
	t := time.Now()
	scn, err := synth.BuildMultihop(w.cfg(runtime.GOMAXPROCS(0)))
	w.build = time.Since(t)
	w.scn = scn
	return w.build, err
}

func (w *chainRecord) ops() int { return 2 }

func (w *chainRecord) session(tr *tracer, root int) (sample, error) {
	start := time.Now()
	id := tr.begin("apps.Scenario.Run", root)
	run, err := w.scn.Run(w.sz.chainSeconds)
	recorded := time.Now()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	w.run = run
	id = tr.begin("core.Mine", root)
	r, err := core.Mine([]core.RunInput{{Trace: run.Trace, Programs: run.Programs}}, core.Config{
		IRQ:      dev.IRQRadioRX,
		Nodes:    []int{w.relay},
		Detector: timedSVM{tr: tr, parent: id},
	})
	end := time.Now()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	w.ranking = r
	cycles := float64(w.sz.chainNodes) * w.sz.chainSeconds * apps.CyclesPerSecond
	s := sample{
		"wall_s":            end.Sub(start).Seconds(),
		"tail_s":            end.Sub(recorded).Seconds(),
		"first_topk_s":      end.Sub(start).Seconds(),
		"sim_mcycles_per_s": cycles / 1e6 / recorded.Sub(start).Seconds(),
	}
	if tr != nil {
		spans := tr.sessionSpans(tr.session)
		var agg emuStats
		agg.add(run, w.sz.chainSeconds)
		for _, nt := range run.Trace.Nodes {
			agg.markers += int64(len(nt.Markers))
		}
		agg.into(s)
		s["apps.build_ms"] = w.build.Seconds() * 1e3
		s["sim.run_s"] = sum(durations(spans, "apps.Scenario.Run"))
		s["core.mine_s"] = sum(durations(spans, "core.Mine"))
		s["svm.score_s"] = sum(durations(spans, "svm.ScoreSparse"))
		s["lifecycle.intervals"] = float64(len(r.Samples))
		s["lifecycle.excluded"] = float64(r.Excluded)
	}
	return s, nil
}

// check compares the parallel recording byte for byte with a sequential
// recording of the same seed, and requires a non-empty ranking.
func (w *chainRecord) check() error {
	if w.ranking == nil || len(w.ranking.Samples) == 0 {
		return fmt.Errorf("chain-record mined no intervals on relay %d", w.relay)
	}
	seq, err := synth.Multihop(w.cfg(1))
	if err != nil {
		return fmt.Errorf("sequential recording: %w", err)
	}
	defer seq.Release()
	return sameTrace(w.run.Trace, seq.Trace)
}

// timedSVM is the default one-class SVM with its sparse scoring traced
// (instruction counters always take the sparse path).
type timedSVM struct {
	outlier.OneClassSVM
	tr     *tracer
	parent int
}

func (d timedSVM) ScoreSparse(samples []stats.Sparse) ([]float64, error) {
	id := d.tr.begin("svm.ScoreSparse", d.parent)
	defer d.tr.end(id)
	return d.OneClassSVM.ScoreSparse(samples)
}

// ---- large-online ----------------------------------------------------------

// largeOnline feeds synthetic campaign-scale counters to core.OnlineMiner
// in arrival batches (in-memory store, refit every 4 batches, kernel cache
// bounded to a quarter of the dense Gram), then finalizes. It runs no
// emulation: the SMO solver and kernel cache do the work.
type largeOnline struct {
	sz      sizes
	seed    uint64
	batches []core.Batch
	final   *core.Ranking
}

func (w *largeOnline) cacheBytes() int64 { return 8 * int64(w.sz.largeL) * int64(w.sz.largeL) / 4 }

// largeCampaignSeed fixes the campaign (its code paths and block sizes set
// how hard the SMO problem is, by a factor of two or more between seeds).
// The workload seed picks the order of the intervals inside each arrival
// batch; which intervals form a batch stays fixed, since that decides the
// cost of the refits. It is the campaign the online-mining benchmarks of
// internal/core measure.
const largeCampaignSeed = 11

func (w *largeOnline) setup() (time.Duration, error) {
	t := time.Now()
	// No planted anomalies: their outsized counts would move the streaming
	// scale bounds at whichever refit first sees them, and a moved bound
	// discards the kernel cache, so the solver's work would hinge on where
	// the arrival order happens to place them.
	counters := synth.LargeCampaign(synth.LargeCampaignConfig{
		Seed: largeCampaignSeed, Samples: w.sz.largeL, Dim: w.sz.largeDim, BlockJitter: true, AnomalyRate: -1,
	})
	per := (len(counters) + w.sz.largeBatches - 1) / w.sz.largeBatches
	order := make([]int, len(counters))
	for i := range order {
		lo := i / per * per // inside-out Fisher-Yates within i's batch
		j := lo + int(mix(w.seed, uint64(i))%uint64(i-lo+1))
		order[i], order[j] = order[j], i
	}
	w.batches = w.batches[:0]
	for start := 0; start < len(order); start += per {
		b := core.Batch{Run: len(w.batches) + 1}
		for _, i := range order[start:min(start+per, len(order))] {
			b.Intervals = append(b.Intervals, lifecycle.Interval{IRQ: 1, Seq: i + 1, Node: 1, Complete: true, EndsWithTask: true})
			b.Counters = append(b.Counters, counters[i])
		}
		w.batches = append(w.batches, b)
	}
	return time.Since(t), nil
}

func (w *largeOnline) ops() int { return len(w.batches) + 1 }

func (w *largeOnline) session(tr *tracer, root int) (sample, error) {
	var (
		firstTop time.Time
		refits   refitStats
	)
	m, err := core.NewOnlineMiner(core.OnlineConfig{
		Config:     core.Config{IRQ: 1, SVMCacheBytes: w.cacheBytes()},
		RefitEvery: 4,
		OnRanking: func(r *core.OnlineRanking) {
			if firstTop.IsZero() {
				firstTop = time.Now()
			}
			refits.add(r)
		},
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for _, b := range w.batches {
		id := tr.begin("core.OnlineMiner.Add", root)
		before := refits.refits
		if err := m.Add(b); err != nil {
			m.Close()
			return nil, err
		}
		if refits.refits > before {
			tr.endAs(id, "core.OnlineMiner.Add+refit")
		} else {
			tr.end(id)
		}
	}
	lastAdd := time.Now()
	id := tr.begin("core.OnlineMiner.Finalize", root)
	r, err := m.Finalize()
	end := time.Now()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	w.final = r
	s := sample{
		"wall_s":       end.Sub(start).Seconds(),
		"tail_s":       end.Sub(lastAdd).Seconds(),
		"first_topk_s": firstTop.Sub(start).Seconds(),
		"finalize_s":   end.Sub(lastAdd).Seconds(),
	}
	if tr != nil {
		spans := tr.sessionSpans(tr.session)
		s["core.ingest_s"] = sum(durations(spans, "core.OnlineMiner.Add"))
		s["core.refit_s"] = sum(durations(spans, "core.OnlineMiner.Add+refit"))
		refits.into(s)
		s["lifecycle.intervals"] = float64(len(r.Samples))
		s["lifecycle.excluded"] = float64(r.Excluded)
	}
	return s, nil
}

// check compares the finalized ranking with core.MineBatches over the same
// batches (copied: MineBatches scales its input in place).
func (w *largeOnline) check() error {
	copies := make([]core.Batch, len(w.batches))
	for i, b := range w.batches {
		c := core.Batch{Run: b.Run, Intervals: b.Intervals, Counters: make([]stats.Sparse, len(b.Counters))}
		for j, v := range b.Counters {
			c.Counters[j] = stats.Sparse{Idx: append([]int32(nil), v.Idx...), Val: append([]float64(nil), v.Val...), Dim: v.Dim}
		}
		copies[i] = c
	}
	want, err := core.MineBatches(copies, core.Config{IRQ: 1, SVMCacheBytes: w.cacheBytes()})
	if err != nil {
		return fmt.Errorf("one-shot MineBatches: %w", err)
	}
	return sameRanking(w.final, want)
}

// ---- shared counters and checks --------------------------------------------

// emuStats sums the emulator-side counters of recorded runs.
type emuStats struct {
	st                  sim.Stats
	mcycles             float64
	deliveries, markers int64
}

func (e *emuStats) add(run *apps.Run, seconds float64) {
	st := run.Stats
	e.st.Rounds += st.Rounds
	e.st.IdleJumps += st.IdleJumps
	e.st.SoloJumps += st.SoloJumps
	e.st.ParallelSections += st.ParallelSections
	e.st.ParallelAdvances += st.ParallelAdvances
	e.st.HorizonBarriers += st.HorizonBarriers
	e.st.StagedEvents += st.StagedEvents
	e.st.WorkersParked += st.WorkersParked
	e.mcycles += float64(len(run.Nodes)) * seconds * apps.CyclesPerSecond / 1e6
	e.deliveries += int64(len(run.Net.Deliveries()))
}

func (e *emuStats) into(s sample) {
	s["sim.node_mcycles"] = e.mcycles
	s["sim.rounds"] = float64(e.st.Rounds)
	s["sim.idle_jumps"] = float64(e.st.IdleJumps)
	s["sim.solo_jumps"] = float64(e.st.SoloJumps)
	s["sim.parallel_sections"] = float64(e.st.ParallelSections)
	if e.st.ParallelSections > 0 {
		s["sim.section_width"] = float64(e.st.ParallelAdvances) / float64(e.st.ParallelSections)
	}
	s["sim.horizon_barriers"] = float64(e.st.HorizonBarriers)
	s["sim.staged_events"] = float64(e.st.StagedEvents)
	s["sim.workers_parked"] = float64(e.st.WorkersParked)
	s["medium.deliveries"] = float64(e.deliveries)
	s["trace.markers"] = float64(e.markers)
}

// refitStats sums the solver and replay counters the online miner
// publishes with every intermediate ranking.
type refitStats struct {
	refits, delta, warm, rebuilds, iters int
	hits, misses                         int64
	decoded, skipped, replayed           int
	last                                 *core.OnlineRanking
}

func (r *refitStats) add(o *core.OnlineRanking) {
	r.refits++
	r.iters += o.Iters
	r.hits += o.CacheHits
	r.misses += o.CacheMisses
	r.decoded += o.BlocksDecoded
	r.skipped += o.BlocksSkipped
	r.replayed += o.SamplesReplayed
	if o.Delta {
		r.delta++
	}
	if o.Warm {
		r.warm++
	}
	if o.Rebuilt {
		r.rebuilds++
	}
	r.last = o
}

func (r *refitStats) into(s sample) {
	s["core.refits"] = float64(r.refits)
	s["core.blocks_decoded"] = float64(r.decoded)
	s["core.blocks_skipped"] = float64(r.skipped)
	s["core.samples_replayed"] = float64(r.replayed)
	s["svm.rebuilds"] = float64(r.rebuilds)
	if r.refits > 0 {
		n := float64(r.refits)
		s["core.delta_ratio"] = float64(r.delta) / n
		s["svm.warm_ratio"] = float64(r.warm) / n
		s["svm.iters_per_refit"] = float64(r.iters) / n
	}
	if r.hits+r.misses > 0 {
		s["svm.cache_hit_ratio"] = float64(r.hits) / float64(r.hits+r.misses)
	}
	if r.last != nil {
		s["trace.spill_mb"] = float64(r.last.SpilledBytes) / 1e6
		s["trace.spill_blocks"] = float64(r.last.SpilledBlocks)
		s["trace.compactions"] = float64(r.last.Compactions)
	}
}

// sameRanking requires got to be bit-identical to a non-empty want: same
// detector, labels, dimensionality, exclusions, and every sample in the
// same order with the same score bits.
func sameRanking(got, want *core.Ranking) error {
	switch {
	case got == nil || want == nil:
		return fmt.Errorf("missing ranking")
	case len(want.Samples) == 0:
		return fmt.Errorf("reference ranking is empty")
	case got.Detector != want.Detector || got.Labels != want.Labels || got.Dim != want.Dim || got.Excluded != want.Excluded:
		return fmt.Errorf("ranking header differs: got %s/%d/dim %d/excl %d, want %s/%d/dim %d/excl %d",
			got.Detector, got.Labels, got.Dim, got.Excluded, want.Detector, want.Labels, want.Dim, want.Excluded)
	case len(got.Samples) != len(want.Samples):
		return fmt.Errorf("ranking has %d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i, g := range got.Samples {
		w := want.Samples[i]
		if g.Run != w.Run || g.Interval != w.Interval || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("rank %d differs: got %s score %v, want %s score %v", i+1, g.Label(got.Labels), g.Score, w.Label(want.Labels), w.Score)
		}
	}
	return nil
}

// sameTrace requires the serialized traces to be byte-identical and to hold
// at least one marker.
func sameTrace(got, want *trace.Trace) error {
	markers := 0
	for _, nt := range want.Nodes {
		markers += len(nt.Markers)
	}
	if markers == 0 {
		return fmt.Errorf("reference trace holds no markers")
	}
	var g, w bytes.Buffer
	if err := got.WriteBinary(&g); err != nil {
		return err
	}
	if err := want.WriteBinary(&w); err != nil {
		return err
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		return fmt.Errorf("parallel trace (%d bytes) differs from the sequential recording (%d bytes)", g.Len(), w.Len())
	}
	return nil
}
