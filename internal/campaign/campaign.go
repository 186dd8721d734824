// Package campaign fans a Sentomist testing campaign — many simulated runs
// of the same deployment — over a bounded worker pool, featuring each run
// online through the streaming anatomizer instead of materializing marker
// traces. A campaign's memory footprint is therefore O(intervals), not
// O(markers): each worker's recorder scratch, per-interval counter scratch,
// and predecoded program image are pooled and shared across runs.
//
// The produced ranking is bit-identical to running every scenario with
// materialized traces and handing them to core.Mine — the online anatomizer
// reproduces Criteria 1–3 exactly and the batches are stitched in the same
// (run, node, interval) order the materialized pipeline visits.
package campaign

import (
	"fmt"
	"runtime"
	"sync"

	"sentomist/internal/core"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/sim"
	"sentomist/internal/trace"
)

// Config selects what the campaign mines and how wide it fans out.
type Config struct {
	// IRQ is the event type whose intervals are mined.
	IRQ int
	// Nodes restricts mining to these node IDs; nil means all nodes.
	Nodes []int
	// Detector defaults to the one-class SVM.
	Detector outlier.Detector
	// Labels defaults to core.LabelRunSeq.
	Labels core.LabelStyle
	// Workers bounds the pool running scenarios concurrently; <= 0
	// selects GOMAXPROCS, divided by NodeWorkers as the engine resolves it
	// (sim.ResolveParallelism), so a campaign of parallel-emulation runs
	// does not oversubscribe the machine. The ranking is identical at any
	// setting.
	Workers int
	// NodeWorkers is the emulator-side parallelism each run should use
	// (sim.Config.ParallelNodes): how many nodes advance concurrently
	// inside one simulation's conservative-lookahead sections. RunFunc
	// builders pass it into their scenario configs (see
	// experiments.CaseICampaign); Mine uses it only to budget the default
	// run pool. Traces, and therefore rankings, are identical at any
	// setting.
	NodeWorkers int
	// SVMCacheBytes bounds the default detector's kernel column cache
	// (0 = svm.DefaultCacheBytes); see core.Config.SVMCacheBytes.
	// Rankings are bit-identical at any budget. Ignored when Detector is
	// set explicitly.
	SVMCacheBytes int64
	// Online, when set, switches Mine to the streaming path: finished
	// runs are fed to a core.OnlineMiner as they complete (strictly in
	// run order, whatever order the workers finish in), intermediate
	// top-K rankings are published per Online.RefitEvery, and the final
	// ranking comes from OnlineMiner.Finalize — bit-identical to the
	// default one-shot path. Requires Detector == nil.
	Online *OnlineOptions
}

// OnlineOptions carries the rank-as-you-go knobs into core.OnlineConfig;
// see the field docs there. IRQs adds event types mined alongside
// Config.IRQ (one incremental solver per type over the shared stream);
// MineAll returns every type's final ranking.
type OnlineOptions struct {
	IRQs       []int
	RefitEvery int
	TopK       int
	SpillDir   string
	OnRanking  func(*core.OnlineRanking)
}

// Attach is handed to each RunFunc; calling it creates the online
// anatomizer for one monitored node and returns the sink to wire into the
// scenario's Stream map (or NodeSpec.Stream). Call it once per monitored
// node, in node order, before the scenario runs — it is not safe to call
// concurrently within one run.
type Attach func(nodeID int) trace.StreamSink

// RunFunc executes one testing run: build the scenario, attach sinks for
// the monitored nodes, and simulate. The run's markers may be discarded
// (DiscardMarkers) — the attached streamers are the only output the
// campaign needs.
type RunFunc func(attach Attach) error

// Mine executes every run on the worker pool, finalizes each run's
// streamers into core.Batch values, and scores them with
// core.MineBatches. Batches are ordered by (run index, attach order), so
// monitor nodes in the same order the materialized trace would list them
// for a bit-identical ranking. The first run error aborts the campaign.
func Mine(cfg Config, runs []RunFunc) (*core.Ranking, error) {
	if cfg.IRQ == 0 {
		return nil, fmt.Errorf("campaign: config must name the IRQ to mine")
	}
	workers := poolWorkers(cfg, len(runs))
	pool := &lifecycle.ScratchPool{}
	if cfg.Online != nil {
		all, primary, err := mineOnline(cfg, runs, workers, pool)
		if err != nil {
			return nil, err
		}
		r := all[primary]
		if r == nil {
			return nil, core.ErrNoIntervals
		}
		return r, nil
	}
	type runOut struct {
		streamers []*lifecycle.Streamer
		err       error
	}
	outs := make([]runOut, len(runs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				var streamers []*lifecycle.Streamer
				attach := func(nodeID int) trace.StreamSink {
					// Only cfg.IRQ intervals are mined; skip featuring the rest.
					s := lifecycle.NewStreamer(nodeID, pool).Keep(cfg.IRQ)
					streamers = append(streamers, s)
					return s
				}
				err := runs[r](attach)
				outs[r] = runOut{streamers: streamers, err: err}
			}
		}()
	}
	for r := range runs {
		jobs <- r
	}
	close(jobs)
	wg.Wait()

	var batches []core.Batch
	for r, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("campaign: run %d: %w", r+1, out.err)
		}
		for _, s := range out.streamers {
			ivs, cnts, err := s.Finalize()
			if err != nil {
				return nil, fmt.Errorf("campaign: run %d: %w", r+1, err)
			}
			batches = append(batches, core.Batch{Run: r + 1, Intervals: ivs, Counters: cnts})
		}
	}
	return core.MineBatches(batches, core.Config{
		IRQ:           cfg.IRQ,
		Nodes:         cfg.Nodes,
		Detector:      cfg.Detector,
		Labels:        cfg.Labels,
		SVMCacheBytes: cfg.SVMCacheBytes,
	})
}

// MineAll is Mine for multi-IRQ online campaigns: every event type named by
// cfg.IRQ and cfg.Online.IRQs is mined over the single shared run stream,
// and the map holds one final ranking per type that scored at least one
// interval — each bit-identical to the one-shot path with that type as
// Config.IRQ. Requires Online options.
func MineAll(cfg Config, runs []RunFunc) (map[int]*core.Ranking, error) {
	if cfg.Online == nil {
		return nil, fmt.Errorf("campaign: MineAll requires Online options")
	}
	all, _, err := mineOnline(cfg, runs, poolWorkers(cfg, len(runs)), &lifecycle.ScratchPool{})
	return all, err
}

// poolWorkers budgets the run-level fan-out.
func poolWorkers(cfg Config, runs int) int {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if nw := sim.ResolveParallelism(cfg.NodeWorkers); nw > 1 {
			// Each run brings its own node-section workers; shrink the
			// run-level fan-out so total goroutines stay near GOMAXPROCS.
			if workers = workers / nw; workers < 1 {
				workers = 1
			}
		}
	}
	if workers > runs {
		workers = runs
	}
	return workers
}

// mineOnline is Mine's streaming arm: workers finalize each run's streamers
// into batches as the run finishes, and a collector ingests them into a
// core.OnlineMiner strictly in run order (a pending map holds batches from
// runs that finished ahead of their turn). The final rankings run the
// distinct counters through the identical scale → score → rank tail, so
// each is bit-identical to the one-shot path at any worker count or refit
// cadence.
// The first error encountered aborts the campaign, which may be a
// later-indexed run than the one-shot path would report.
func mineOnline(cfg Config, runs []RunFunc, workers int, pool *lifecycle.ScratchPool) (map[int]*core.Ranking, int, error) {
	if cfg.Detector != nil {
		return nil, 0, fmt.Errorf("campaign: online mining drives the incremental one-class SVM; Detector must be nil")
	}
	miner, err := core.NewOnlineMiner(core.OnlineConfig{
		Config: core.Config{
			IRQ:           cfg.IRQ,
			Nodes:         cfg.Nodes,
			Labels:        cfg.Labels,
			SVMCacheBytes: cfg.SVMCacheBytes,
		},
		IRQs:       cfg.Online.IRQs,
		RefitEvery: cfg.Online.RefitEvery,
		TopK:       cfg.Online.TopK,
		SpillDir:   cfg.Online.SpillDir,
		OnRanking:  cfg.Online.OnRanking,
	})
	if err != nil {
		return nil, 0, err
	}
	keep := miner.IRQs()
	primary := keep[0]
	type runOut struct {
		run     int
		batches []core.Batch
		err     error
	}
	jobs := make(chan int)
	results := make(chan runOut)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				var streamers []*lifecycle.Streamer
				attach := func(nodeID int) trace.StreamSink {
					s := lifecycle.NewStreamer(nodeID, pool).Keep(keep...)
					streamers = append(streamers, s)
					return s
				}
				out := runOut{run: r, err: runs[r](attach)}
				if out.err == nil {
					for _, s := range streamers {
						ivs, cnts, ferr := s.Finalize()
						if ferr != nil {
							out.err = ferr
							break
						}
						out.batches = append(out.batches, core.Batch{Run: r + 1, Intervals: ivs, Counters: cnts})
					}
				}
				results <- out
			}
		}()
	}
	go func() {
		for r := range runs {
			jobs <- r
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	pending := make(map[int][]core.Batch, workers)
	next := 0
	var firstErr error
	for out := range results {
		if firstErr != nil {
			continue // drain the pool
		}
		if out.err != nil {
			firstErr = fmt.Errorf("campaign: run %d: %w", out.run+1, out.err)
			continue
		}
		pending[out.run] = out.batches
		for firstErr == nil {
			bs, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			for _, b := range bs {
				if err := miner.Add(b); err != nil {
					firstErr = err
					break
				}
			}
		}
	}
	if firstErr != nil {
		miner.Close()
		return nil, 0, firstErr
	}
	all, err := miner.FinalizeAll()
	if err != nil {
		return nil, 0, err
	}
	return all, primary, nil
}
