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
	// selects GOMAXPROCS. The ranking is identical at any setting.
	Workers int
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
// for a bit-identical ranking. The lowest-indexed failing run aborts the
// campaign.
func Mine(cfg Config, runs []RunFunc) (*core.Ranking, error) {
	if cfg.IRQ == 0 {
		return nil, fmt.Errorf("campaign: config must name the IRQ to mine")
	}
	if cfg.Online != nil {
		all, primary, err := mineOnline(cfg, runs)
		if err != nil {
			return nil, err
		}
		r := all[primary]
		if r == nil {
			return nil, core.ErrNoIntervals
		}
		return r, nil
	}
	var batches []core.Batch
	// Only cfg.IRQ intervals are mined; skip featuring the rest.
	err := runPool(runs, poolWorkers(cfg, len(runs)), []int{cfg.IRQ}, func(b core.Batch) error {
		batches = append(batches, b)
		return nil
	})
	if err != nil {
		return nil, err
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
	all, _, err := mineOnline(cfg, runs)
	return all, err
}

// poolWorkers budgets the run-level fan-out: Workers, or GOMAXPROCS when
// unset, and never more than there are runs.
func poolWorkers(cfg Config, runs int) int {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, runs)
}

// mineOnline is Mine's streaming arm: the run pool hands each finished
// run's batches to a core.OnlineMiner in run order. The final rankings run
// the distinct counters through the identical scale → score → rank tail,
// so each is bit-identical to the one-shot path at any worker count or
// refit cadence.
func mineOnline(cfg Config, runs []RunFunc) (map[int]*core.Ranking, int, error) {
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
	if err := runPool(runs, poolWorkers(cfg, len(runs)), keep, miner.Add); err != nil {
		miner.Close()
		return nil, 0, err
	}
	all, err := miner.FinalizeAll()
	if err != nil {
		return nil, 0, err
	}
	return all, keep[0], nil
}

// runPool executes runs on workers goroutines. Each worker attaches
// streamers that keep the given event types, runs the scenario, and
// finalizes the streamers into batches; a single collector hands the
// batches to deliver strictly in run order, holding results that finished
// ahead of their turn. The first failure in run order — a run, its
// finalization, or deliver — stops the pool handing out further runs and
// is returned once the runs in flight have drained, so the error names
// the lowest-indexed failing run whatever order the workers finish in.
func runPool(runs []RunFunc, workers int, keep []int, deliver func(core.Batch) error) error {
	type runOut struct {
		run     int
		batches []core.Batch
		err     error
	}
	finish := func(r int) runOut {
		var streamers []*lifecycle.Streamer
		attach := func(nodeID int) trace.StreamSink {
			s := lifecycle.NewStreamer(nodeID).Keep(keep...)
			streamers = append(streamers, s)
			return s
		}
		out := runOut{run: r, err: runs[r](attach)}
		if out.err != nil {
			return out
		}
		for _, s := range streamers {
			ivs, cnts, err := s.Finalize()
			if err != nil {
				out.err = err
				return out
			}
			out.batches = append(out.batches, core.Batch{Run: r + 1, Intervals: ivs, Counters: cnts})
		}
		return out
	}

	jobs := make(chan int)
	results := make(chan runOut)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				results <- finish(r)
			}
		}()
	}
	go func() {
		defer close(jobs)
		for r := range runs {
			select {
			case jobs <- r:
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]runOut, workers)
	next := 0
	var firstErr error
	for out := range results {
		if firstErr != nil {
			continue // drain the runs in flight
		}
		pending[out.run] = out
		for firstErr == nil {
			o, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if o.err != nil {
				firstErr = fmt.Errorf("campaign: run %d: %w", o.run+1, o.err)
				break
			}
			for _, b := range o.batches {
				if err := deliver(b); err != nil {
					firstErr = err
					break
				}
			}
		}
		if firstErr != nil {
			close(stop)
		}
	}
	return firstErr
}
