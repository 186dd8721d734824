package experiments

import (
	"os"

	"sentomist/internal/apps"
	"sentomist/internal/bench"
	"sentomist/internal/campaign"
	"sentomist/internal/core"
	"sentomist/internal/dev"
	"sentomist/internal/trace"
)

// CaseICampaign reproduces the Figure 5(a) ranking through the streaming
// pipeline: the five Case-I runs fan out on the campaign worker pool, each
// featuring its sensor node online while the emulator runs, with marker
// materialization switched off entirely. The result is bit-identical to
// CaseI's ranking; only the memory profile differs (no trace is ever
// built, and recorder/counter scratch recycles across runs).
func CaseICampaign(seedBase uint64) (*core.Ranking, error) {
	runs := make([]campaign.RunFunc, len(CaseIPeriods))
	for i, d := range CaseIPeriods {
		i, d := i, d
		runs[i] = func(attach campaign.Attach) error {
			run, err := apps.RunOscilloscope(apps.OscConfig{
				PeriodMS: d, Seconds: 10, Seed: seedBase + uint64(i),
				NodeWorkers: bench.NodeWorkers,
				Stream: map[int]trace.StreamSink{
					apps.OscSensorID: attach(apps.OscSensorID),
				},
				DiscardMarkers: true,
			})
			if err != nil {
				return err
			}
			// The trace carries no markers (discarded) and the streamers
			// own the features; recycle the recorder scratch immediately.
			run.Release()
			return nil
		}
	}
	return campaign.Mine(campaign.Config{
		IRQ:         dev.IRQADC,
		Nodes:       []int{apps.OscSensorID},
		NodeWorkers: bench.NodeWorkers,
	}, runs)
}

// CampaignEquivalence runs Case I both ways — materialized traces through
// core.Mine and the streaming campaign — and reports whether the two
// rankings are identical (order, scores, dimensions, exclusions). The
// `sentomist experiments` report prints it as the streaming pipeline's
// E6 check.
func CampaignEquivalence(seedBase uint64) (samples int, equal bool, err error) {
	materialized, err := caseIRanking(seedBase)
	if err != nil {
		return 0, false, err
	}
	streamed, err := CaseICampaign(seedBase)
	if err != nil {
		return 0, false, err
	}
	if len(streamed.Samples) != len(materialized.Samples) ||
		streamed.Dim != materialized.Dim ||
		streamed.Excluded != materialized.Excluded {
		return len(materialized.Samples), false, nil
	}
	for i := range materialized.Samples {
		w, g := materialized.Samples[i], streamed.Samples[i]
		if w.Run != g.Run || w.Interval != g.Interval || w.Score != g.Score {
			return len(materialized.Samples), false, nil
		}
	}
	return len(materialized.Samples), true, nil
}

// OnlineEquivalence exercises the rank-as-you-go path: the Case-I campaign
// streamed into the online miner at several worker counts and refit
// cadences — exact refits, the spilled and the in-memory row log, and a
// multi-IRQ configuration mining the sampling timer alongside the ADC —
// each finalized primary ranking compared bitwise against the one-shot
// campaign ranking. The `sentomist experiments` report prints it as E7.
func OnlineEquivalence(seedBase uint64) (samples, refits, configs int, equal bool, err error) {
	baseline, err := CaseICampaign(seedBase)
	if err != nil {
		return 0, 0, 0, false, err
	}
	sameRanking := func(got *core.Ranking) bool {
		if len(got.Samples) != len(baseline.Samples) ||
			got.Dim != baseline.Dim || got.Excluded != baseline.Excluded {
			return false
		}
		for i := range baseline.Samples {
			if got.Samples[i] != baseline.Samples[i] {
				return false
			}
		}
		return true
	}
	for _, v := range []struct {
		workers int
		online  campaign.OnlineOptions
		spill   bool
	}{
		{1, campaign.OnlineOptions{RefitEvery: 1}, false},
		{3, campaign.OnlineOptions{RefitEvery: 2}, false},
		{2, campaign.OnlineOptions{RefitEvery: 1}, true},
		{3, campaign.OnlineOptions{RefitEvery: 3}, true},
		// A second event type sharing the stream; the primary ADC ranking
		// must be unaffected.
		{2, campaign.OnlineOptions{RefitEvery: 1, IRQs: []int{dev.IRQTimer0}}, true},
	} {
		spillDir := ""
		if v.spill {
			if spillDir, err = os.MkdirTemp("", "sentomist-e7-"); err != nil {
				return 0, 0, 0, false, err
			}
		}
		got, runErr := mineCaseIOnline(seedBase, v.workers, v.online, spillDir, &refits)
		if spillDir != "" {
			os.RemoveAll(spillDir)
		}
		if runErr != nil {
			return 0, 0, 0, false, runErr
		}
		configs++
		if !sameRanking(got) {
			return len(baseline.Samples), refits, configs, false, nil
		}
	}
	return len(baseline.Samples), refits, configs, true, nil
}

// mineCaseIOnline is CaseICampaign with the streaming-ingest arm enabled.
func mineCaseIOnline(seedBase uint64, workers int, online campaign.OnlineOptions, spillDir string, refits *int) (*core.Ranking, error) {
	runs := make([]campaign.RunFunc, len(CaseIPeriods))
	for i, d := range CaseIPeriods {
		i, d := i, d
		runs[i] = func(attach campaign.Attach) error {
			run, err := apps.RunOscilloscope(apps.OscConfig{
				PeriodMS: d, Seconds: 10, Seed: seedBase + uint64(i),
				NodeWorkers: bench.NodeWorkers,
				Stream: map[int]trace.StreamSink{
					apps.OscSensorID: attach(apps.OscSensorID),
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
	online.TopK = 5
	online.SpillDir = spillDir
	online.OnRanking = func(*core.OnlineRanking) { *refits++ }
	return campaign.Mine(campaign.Config{
		IRQ:         dev.IRQADC,
		Nodes:       []int{apps.OscSensorID},
		NodeWorkers: bench.NodeWorkers,
		Workers:     workers,
		Online:      &online,
	}, runs)
}

// caseIRanking is CaseI's mining step without the summary: the reference
// the campaign is compared against.
func caseIRanking(seedBase uint64) (*core.Ranking, error) {
	inputs := make([]core.RunInput, len(CaseIPeriods))
	for i, d := range CaseIPeriods {
		run, err := apps.RunOscilloscope(apps.OscConfig{
			PeriodMS: d, Seconds: 10, Seed: seedBase + uint64(i),
			NodeWorkers: bench.NodeWorkers,
		})
		if err != nil {
			return nil, err
		}
		inputs[i] = core.RunInput{Trace: run.Trace, Programs: run.Programs}
	}
	return core.Mine(inputs, core.Config{
		IRQ:   dev.IRQADC,
		Nodes: []int{apps.OscSensorID},
	})
}
