package sentomist_test

// Online incremental mining claims exact finality: whatever the refit
// cadence, spill mode, or upstream worker count, OnlineMiner.Finalize must
// reproduce the one-shot MineBatches ranking bit for bit. These tests pin
// that on the three paper case studies, on the deterministic multihop
// scenario, and on the campaign engine's streaming-ingest arm.

import (
	"testing"

	"sentomist"
	"sentomist/internal/synth"
	"sentomist/internal/trace"
)

// mineOnline streams freshly extracted batches through an online miner and
// finalizes. A zero refitEvery exercises the ingest-only path (no
// intermediate refits at all).
func mineOnline(t *testing.T, inputs []sentomist.RunInput, cfg sentomist.MineConfig, refitEvery int, spillDir string) (*sentomist.Ranking, int) {
	t.Helper()
	batches, err := sentomist.ExtractBatches(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refits := 0
	miner, err := sentomist.NewOnlineMiner(sentomist.OnlineMineConfig{
		Config:     cfg,
		RefitEvery: refitEvery,
		TopK:       5,
		SpillDir:   spillDir,
		OnRanking:  func(*sentomist.OnlineRanking) { refits++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := miner.Add(b); err != nil {
			miner.Close()
			t.Fatal(err)
		}
	}
	ranking, err := miner.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return ranking, refits
}

// TestOnlineMatchesOneShotCaseStudies pins the finality claim on all three
// case studies, across refit cadences and both spill stores. MineBatches
// scales counters in place, so every mining pass extracts its own batches.
func TestOnlineMatchesOneShotCaseStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	for name, fx := range caseFixtures(t) {
		t.Run(name, func(t *testing.T) {
			oneShot, err := sentomist.ExtractBatches(fx.inputs, fx.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sentomist.MineBatches(oneShot, fx.cfg)
			if err != nil {
				t.Fatal(err)
			}
			refitsSeen := false
			for _, cadence := range []int{0, 1, 3} {
				for _, spill := range []string{"", t.TempDir()} {
					got, refits := mineOnline(t, fx.inputs, fx.cfg, cadence, spill)
					label := name + "/online"
					if spill != "" {
						label += "+spill"
					}
					sameRankingExact(t, label, want, got)
					if cadence > 0 && refits > 0 {
						refitsSeen = true
					}
				}
			}
			if !refitsSeen {
				t.Error("no intermediate refits fired at any cadence")
			}
		})
	}
}

// TestOnlineMatchesOneShotMultihop pins the finality claim on the
// deterministic multihop chain — radio-driven intervals, incomplete
// intervals excluded — mined per forwarding node.
func TestOnlineMatchesOneShotMultihop(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	run, err := synth.Multihop(synth.MultihopConfig{Nodes: 6, Seconds: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []sentomist.RunInput{{Trace: run.Trace, Programs: run.Programs}}
	// Each chain node runs its own program (distinct dims), so mine one
	// node at a time.
	for _, nodeID := range []int{0, 2} {
		cfg := sentomist.MineConfig{IRQ: sentomist.IRQTimer0, Nodes: []int{nodeID}}
		oneShot, err := sentomist.ExtractBatches(inputs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sentomist.MineBatches(oneShot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cadence := range []int{1, 2} {
			got, _ := mineOnline(t, inputs, cfg, cadence, "")
			sameRankingExact(t, "multihop/online", want, got)
		}
	}
}

// TestOnlineMultiIRQMatchesOneShot pins multi-IRQ finality on the multihop
// chain: the forwarding node's timer and radio-receive intervals are mined
// together over one shared spill, and FinalizeAll's per-type rankings must
// each match one-shot MineBatches with that type as the config IRQ.
func TestOnlineMultiIRQMatchesOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	run, err := synth.Multihop(synth.MultihopConfig{Nodes: 6, Seconds: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []sentomist.RunInput{{Trace: run.Trace, Programs: run.Programs}}
	irqs := []int{sentomist.IRQTimer0, sentomist.IRQRadioRX}
	want := map[int]*sentomist.Ranking{}
	for _, irq := range irqs {
		cfg := sentomist.MineConfig{IRQ: irq, Nodes: []int{2}}
		oneShot, err := sentomist.ExtractBatches(inputs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want[irq], err = sentomist.MineBatches(oneShot, cfg); err != nil {
			t.Fatal(err)
		}
	}
	cfg := sentomist.MineConfig{IRQ: sentomist.IRQTimer0, Nodes: []int{2}}
	batches, err := sentomist.ExtractBatchesFor(inputs, cfg, irqs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, spill := range []string{"", t.TempDir()} {
		miner, err := sentomist.NewOnlineMiner(sentomist.OnlineMineConfig{
			Config:     cfg,
			IRQs:       []int{sentomist.IRQRadioRX},
			RefitEvery: 2,
			TopK:       5,
			SpillDir:   spill,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := miner.Add(b); err != nil {
				miner.Close()
				t.Fatal(err)
			}
		}
		all, err := miner.FinalizeAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(irqs) {
			t.Fatalf("FinalizeAll returned %d rankings, want %d", len(all), len(irqs))
		}
		for _, irq := range irqs {
			sameRankingExact(t, "multihop/multi-irq", want[irq], all[irq])
		}
	}
}

// TestOnlineCampaignMatchesMine pins the campaign engine's streaming-ingest
// arm: runs finish on a worker pool in nondeterministic order, are ingested
// strictly in run order, and the finalized ranking still matches the
// materialized pipeline at every worker count, with the row log spilled to
// disk and held in memory.
func TestOnlineCampaignMatchesMine(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	var inputs []sentomist.RunInput
	for i, d := range []int{20, 40, 60} {
		run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: d, Seconds: 5, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, sentomist.RunInput{Trace: run.Trace, Programs: run.Programs})
	}
	want, err := sentomist.Mine(inputs, sentomist.MineConfig{
		IRQ: sentomist.IRQADC, Nodes: []int{sentomist.CaseISensorID},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		workers int
		spill   bool
	}{
		{workers: 1, spill: true},
		{workers: 4, spill: false},
		{workers: 0, spill: true},
	} {
		spillDir := ""
		if v.spill {
			spillDir = t.TempDir()
		}
		got, err := campaignCaseIOnline(v.workers, spillDir)
		if err != nil {
			t.Fatal(err)
		}
		sameRankingExact(t, "campaign-online", want, got)
	}
}

// campaignCaseIOnline is streaming_test.go's reduced Case-I campaign with
// the online arm enabled: refit every batch, top-5, rows spilled to
// spillDir (in memory when empty).
func campaignCaseIOnline(workers int, spillDir string) (*sentomist.Ranking, error) {
	periods := []int{20, 40, 60}
	runs := make([]sentomist.CampaignRun, len(periods))
	for i, d := range periods {
		i, d := i, d
		runs[i] = func(attach sentomist.CampaignAttach) error {
			run, err := sentomist.RunCaseI(sentomist.CaseIConfig{
				PeriodMS: d, Seconds: 5, Seed: uint64(100 + i),
				Stream: map[int]trace.StreamSink{
					sentomist.CaseISensorID: attach(sentomist.CaseISensorID),
				},
				DiscardMarkers: true,
			})
			if err != nil {
				return err
			}
			run.Release()
			return nil
		}
	}
	return sentomist.MineCampaign(sentomist.CampaignConfig{
		IRQ:     sentomist.IRQADC,
		Nodes:   []int{sentomist.CaseISensorID},
		Workers: workers,
		Online: &sentomist.CampaignOnline{
			RefitEvery: 1,
			TopK:       5,
			SpillDir:   spillDir,
		},
	}, runs)
}
