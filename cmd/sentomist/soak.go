package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"

	"sentomist/internal/apps"
	"sentomist/internal/core"
	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/node"
	"sentomist/internal/sim"
	"sentomist/internal/synth"
	"sentomist/internal/trace"
)

type soakOptions struct {
	runs        int
	seed        uint64
	nodes       int
	seconds     float64
	stream      bool
	mineIRQ     int
	svmCacheMB  int
	onlineCheck bool
	parCheck    bool
}

// soakCmd hammers the substrate and the analyzer with randomized
// scenarios (random topologies, task chains, interrupt fuzzing) and checks
// the ground-truth invariant on every run: black-box interval
// identification must reconstruct exactly the intervals the runtime knows
// it executed. Use it after modifying the simulator, the runtime, or the
// analyzer.
func soakCmd(fs *flag.FlagSet) runFunc {
	var o soakOptions
	fs.IntVar(&o.runs, "runs", 100, "number of random scenarios")
	fs.Uint64Var(&o.seed, "seed", 1, "starting seed")
	fs.IntVar(&o.nodes, "nodes", 0, "exact node count (0 = random 1..6)")
	fs.Float64Var(&o.seconds, "seconds", 0.5, "simulated seconds per scenario")
	fs.BoolVar(&o.stream, "stream", false, "also cross-check the online anatomizer against the two-pass reference on every node")
	fs.IntVar(&o.mineIRQ, "mine-irq", 0, "also mine every run's intervals of this event type and cross-check the SVM ranking at the -svm-cache-mb kernel column budget against the default budget, which keeps every column resident, bitwise (0 = off)")
	fs.IntVar(&o.svmCacheMB, "svm-cache-mb", 1, "kernel column cache budget (MiB) for the small-budget side of the -mine-irq cross-check; columns are evicted once the distinct counters outgrow it")
	fs.BoolVar(&o.onlineCheck, "online-check", false, "additionally run every -mine-irq problem through the online miner (an exact refit after every batch, delta refits, a second event type; spilled and in-memory passes) and require every finalized ranking to be bit-identical to one-shot MineBatches")
	fs.BoolVar(&o.parCheck, "par-check", false, "re-record every scenario on the lockstep oracle (the emulator with conservative-lookahead sections off) and require its serialized trace to be byte-identical to the production recording")
	return func(_ []string, stdout, _ io.Writer) error { return soak(stdout, o) }
}

func soak(w io.Writer, o soakOptions) error {
	if o.onlineCheck && o.mineIRQ == 0 {
		return usagef("-online-check needs -mine-irq to select the event type")
	}
	totalIntervals, totalMarkers, totalStreamed, totalMined := 0, 0, 0, 0
	totalOnline, totalRefits := 0, 0
	var stats sim.Stats
	for i := 0; i < o.runs; i++ {
		s := o.seed + uint64(i)
		cfg := synth.Config{
			Seed:       s,
			MaxNodes:   6,
			ExactNodes: o.nodes,
			Seconds:    o.seconds,
		}
		r, err := synth.Generate(cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if err := r.Trace.Validate(); err != nil {
			return fmt.Errorf("seed %d: invalid trace: %w", s, err)
		}
		addStats(&stats, r.Stats)
		if o.parCheck {
			if err := verifyLockstep(cfg, r); err != nil {
				return fmt.Errorf("seed %d: %w", s, err)
			}
		}
		for _, nt := range r.Trace.Nodes {
			totalMarkers += len(nt.Markers)
			n, err := verify(nt)
			if err != nil {
				return fmt.Errorf("seed %d node %d: %w", s, nt.NodeID, err)
			}
			totalIntervals += n
			if o.stream {
				n, err := verifyStream(nt)
				if err != nil {
					return fmt.Errorf("seed %d node %d: %w", s, nt.NodeID, err)
				}
				totalStreamed += n
			}
		}
		if o.mineIRQ != 0 {
			n, err := verifyMine(r.Trace, o.mineIRQ, int64(o.svmCacheMB)<<20)
			if err != nil {
				return fmt.Errorf("seed %d: %w", s, err)
			}
			totalMined += n
			if o.onlineCheck {
				n, refits, err := verifyOnline(r.Trace, o.mineIRQ)
				if err != nil {
					return fmt.Errorf("seed %d: %w", s, err)
				}
				totalOnline += n
				totalRefits += refits
			}
		}
		if (i+1)%25 == 0 {
			fmt.Fprintf(w, "%d/%d scenarios ok (%d intervals verified)\n", i+1, o.runs, totalIntervals)
		}
	}
	fmt.Fprintf(w, "soak passed: %d scenarios, %d markers, %d intervals verified against ground truth\n",
		o.runs, totalMarkers, totalIntervals)
	if o.stream {
		fmt.Fprintf(w, "streaming anatomizer: %d intervals bit-identical to the two-pass reference\n",
			totalStreamed)
	}
	if o.mineIRQ != 0 {
		fmt.Fprintf(w, "mining cross-check: %d intervals ranked, %d MiB kernel column budget bit-identical to the default budget\n",
			totalMined, o.svmCacheMB)
	}
	if o.onlineCheck {
		fmt.Fprintf(w, "online cross-check: %d intervals through %d refits (two event types, spilled and in-memory passes, store counters checked), finalized rankings bit-identical to one-shot\n",
			totalOnline, totalRefits)
	}
	if o.parCheck {
		fmt.Fprintln(w, "lockstep cross-check: every serialized trace byte-identical to the lockstep oracle")
	}
	if stats.ParallelSections > 0 {
		printSchedStats(w, "scheduler", stats)
	}
	return nil
}

// addStats accumulates one run's scheduler counters into the campaign total.
func addStats(total *sim.Stats, s sim.Stats) {
	total.Rounds += s.Rounds
	total.IdleJumps += s.IdleJumps
	total.SoloJumps += s.SoloJumps
	total.ParallelSections += s.ParallelSections
	total.HorizonBarriers += s.HorizonBarriers
	total.ParallelAdvances += s.ParallelAdvances
	total.StagedEvents += s.StagedEvents
}

// verifyLockstep re-records the scenario on the lockstep oracle and
// requires its serialized trace to be byte-identical to the production
// recording r (the trace-equivalence gate of the section scheduler, on live
// random topologies).
func verifyLockstep(cfg synth.Config, r *apps.Run) error {
	cfg.Lockstep = true
	ref, err := synth.Generate(cfg)
	if err != nil {
		return fmt.Errorf("lockstep oracle: %w", err)
	}
	var a, b bytes.Buffer
	if err := ref.Trace.WriteBinary(&a); err != nil {
		return err
	}
	if err := r.Trace.WriteBinary(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("trace diverges from the lockstep oracle (%d vs %d bytes)",
			b.Len(), a.Len())
	}
	return nil
}

// verifyMine ranks one run's intervals with the SVM at the default kernel
// column budget (every column resident on runs this size) and at the
// given budget, which evicts columns once the distinct counters outgrow
// it, requiring bit-identical rankings (same order, same scores). Runs
// without intervals of the event type are skipped.
func verifyMine(t *trace.Trace, irq int, cacheBytes int64) (int, error) {
	// Every synth node runs its own generated program, so counters from
	// different nodes have different dimensionalities; mine node 0 (it
	// exists in every scenario).
	mine := func(cache int64) (*core.Ranking, error) {
		return core.Mine([]core.RunInput{{Trace: t}}, core.Config{
			IRQ:           irq,
			Nodes:         []int{0},
			SVMCacheBytes: cache,
		})
	}
	resident, err := mine(0)
	if errors.Is(err, core.ErrNoIntervals) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	cached, err := mine(cacheBytes)
	if err != nil {
		return 0, err
	}
	if len(cached.Samples) != len(resident.Samples) {
		return 0, fmt.Errorf("mine: %d-byte budget ranks %d samples, default budget %d", cacheBytes, len(cached.Samples), len(resident.Samples))
	}
	for i := range resident.Samples {
		if cached.Samples[i] != resident.Samples[i] {
			return 0, fmt.Errorf("mine: rank %d diverges: %d-byte budget %+v, default budget %+v",
				i+1, cacheBytes, cached.Samples[i], resident.Samples[i])
		}
	}
	return len(resident.Samples), nil
}

// verifyOnline streams one run's batches through the online miner — an
// exact refit after every batch, delta refits, and a second event type
// mined over the shared stream — once with the row log spilled to disk and
// once in memory, and requires every finalized ranking to be bit-identical
// to one-shot MineBatches for its event type. Along the way the published
// store counters are checked (see the passes below). Runs without
// intervals of any checked event type are skipped.
func verifyOnline(t *trace.Trace, irq int) (intervals, refits int, err error) {
	alt := 1
	if irq == 1 {
		alt = 4 // radio-rx alongside timer0
	}
	cfg := core.Config{IRQ: irq, Nodes: []int{0}}
	// One-shot references, one per event type. MineBatches scales counters
	// in place, so each side gets its own freshly extracted batch stream.
	wants := map[int]*core.Ranking{}
	for _, q := range []int{irq, alt} {
		qcfg := cfg
		qcfg.IRQ = q
		oneShot, err := core.ExtractBatches([]core.RunInput{{Trace: t}}, qcfg)
		if err != nil {
			return 0, 0, fmt.Errorf("online: %w", err)
		}
		want, err := core.MineBatches(oneShot, qcfg)
		if errors.Is(err, core.ErrNoIntervals) {
			continue
		}
		if err != nil {
			return 0, 0, err
		}
		wants[q] = want
		intervals += len(want.Samples)
	}
	if len(wants) == 0 {
		return 0, 0, nil
	}
	batches, err := core.ExtractBatchesFor([]core.RunInput{{Trace: t}}, cfg, irq, alt)
	if err != nil {
		return 0, 0, fmt.Errorf("online: %w", err)
	}
	spill, err := os.MkdirTemp("", "sentomist-soak-spill-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(spill)

	finalize := func(m *core.OnlineMiner, label string) error {
		all, err := m.FinalizeAll()
		if err != nil {
			return fmt.Errorf("online %s: %w", label, err)
		}
		for q, want := range wants {
			got := all[q]
			if got == nil {
				return fmt.Errorf("online %s: irq %d missing from FinalizeAll", label, q)
			}
			if len(got.Samples) != len(want.Samples) || got.Excluded != want.Excluded {
				return fmt.Errorf("online %s irq %d: %d samples (%d excluded), one-shot %d (%d)",
					label, q, len(got.Samples), got.Excluded, len(want.Samples), want.Excluded)
			}
			for i := range want.Samples {
				if got.Samples[i] != want.Samples[i] {
					return fmt.Errorf("online %s irq %d: rank %d diverges: online %+v, one-shot %+v",
						label, q, i+1, got.Samples[i], want.Samples[i])
				}
			}
		}
		for q := range all {
			if wants[q] == nil {
				return fmt.Errorf("online %s: FinalizeAll returned irq %d, one-shot found no intervals", label, q)
			}
		}
		return nil
	}

	// Two passes, the row log spilled to disk and held in memory. Every
	// refit must publish consistent store counters: no more distinct
	// counters than intervals, and a delta refit (all bounds stable) never
	// rebuilds a kernel cache.
	for _, pass := range []struct{ label, dir string }{{"spilled", spill}, {"in-memory", ""}} {
		var counterErr error
		miner, err := core.NewOnlineMiner(core.OnlineConfig{
			Config:     cfg,
			IRQs:       []int{alt},
			RefitEvery: 1,
			TopK:       5,
			SpillDir:   pass.dir,
			OnRanking: func(r *core.OnlineRanking) {
				refits++
				switch {
				case counterErr != nil:
				case r.Groups > r.Total:
					counterErr = fmt.Errorf("online %s: refit %d irq %d solved %d groups for %d intervals",
						pass.label, r.Refit, r.IRQ, r.Groups, r.Total)
				case r.Delta && r.Rebuilt:
					counterErr = fmt.Errorf("online %s: delta refit %d irq %d rebuilt its kernel cache",
						pass.label, r.Refit, r.IRQ)
				}
			},
		})
		if err != nil {
			return 0, 0, err
		}
		for _, b := range batches {
			if err := miner.Add(b); err != nil {
				miner.Close()
				return 0, 0, fmt.Errorf("online %s: %w", pass.label, err)
			}
		}
		if counterErr != nil {
			miner.Close()
			return 0, 0, counterErr
		}
		if err := finalize(miner, pass.label); err != nil {
			return 0, 0, err
		}
	}
	return intervals, refits, nil
}

// verifyStream replays the node's markers through the online anatomizer and
// checks intervals and counters are bit-identical to the two-pass
// reference (Extract + CounterSparse).
func verifyStream(nt *trace.NodeTrace) (int, error) {
	want, err := lifecycle.NewSequence(nt).Extract()
	if err != nil {
		return 0, err
	}
	ext := feature.NewExtractor(&trace.Trace{Nodes: []*trace.NodeTrace{nt}})
	got, cnt, err := lifecycle.Replay(nt)
	if err != nil {
		return 0, fmt.Errorf("stream: %w", err)
	}
	if len(got) != len(want) {
		return 0, fmt.Errorf("stream: %d intervals, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return 0, fmt.Errorf("stream: interval %d: %+v, reference %+v", i, got[i], want[i])
		}
		wantC, err := ext.CounterSparse(want[i])
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(cnt[i], wantC) {
			return 0, fmt.Errorf("stream: interval %d: counter diverges from reference", i)
		}
	}
	return len(want), nil
}

// verify checks one node's extracted intervals against runtime truth and
// returns how many were verified.
func verify(nt *trace.NodeTrace) (int, error) {
	ivs, err := lifecycle.NewSequence(nt).Extract()
	if err != nil {
		return 0, err
	}
	start := make(map[int]int)
	end := make(map[int]int)
	for i, m := range nt.Markers {
		inst := nt.TruthInstance[i]
		if inst == node.BootInstance {
			continue
		}
		switch m.Kind {
		case trace.Int:
			if _, seen := start[inst]; !seen {
				start[inst] = i
			}
		case trace.TaskEnd, trace.Reti:
			end[inst] = i
		}
	}
	verified := 0
	for _, iv := range ivs {
		if !iv.Complete {
			continue
		}
		if iv.StartMarker != start[iv.Truth] || iv.EndMarker != end[iv.Truth] {
			return 0, fmt.Errorf("instance %d: extracted [%d,%d], truth [%d,%d]",
				iv.Truth, iv.StartMarker, iv.EndMarker, start[iv.Truth], end[iv.Truth])
		}
		verified++
	}
	return verified, nil
}
