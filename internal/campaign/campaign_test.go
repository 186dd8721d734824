package campaign

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"sentomist/internal/apps"
	"sentomist/internal/core"
	"sentomist/internal/dev"
	"sentomist/internal/trace"
)

// TestPoolWorkers pins the run-pool budget: an explicit Workers wins, the
// default is GOMAXPROCS, and neither exceeds the number of runs.
func TestPoolWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct {
		name          string
		workers, runs int
		want          int
	}{
		{"default/sequential", 0, 10, 4},
		{"explicit/sequential", 3, 10, 3},
		{"default/fewer-runs", 0, 2, 2},
		{"explicit/fewer-runs", 8, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := poolWorkers(Config{Workers: tc.workers}, tc.runs); got != tc.want {
				t.Errorf("poolWorkers(Workers=%d, runs=%d) = %d, want %d", tc.workers, tc.runs, got, tc.want)
			}
		})
	}
}

// TestMineRunError checks that failing runs abort both the one-shot and
// the online path with the lowest failing run's 1-based index and the
// original error wrapped, whatever order the failures finish in: runs 3
// and 5 fail, and run 3 returns only once run 6 has started, so run 5's
// failure always reaches the collector first. No pool goroutine may
// outlive Mine.
func TestMineRunError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		online *OnlineOptions
	}{
		{"one-shot", nil},
		{"online", &OnlineOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					before := runtime.NumGoroutine()
					sixthStarted := make(chan struct{})
					runs := make([]RunFunc, 6)
					for i := range runs {
						run := i + 1
						runs[i] = func(Attach) error {
							switch run {
							case 3:
								<-sixthStarted
								return boom
							case 5:
								return boom
							case 6:
								close(sixthStarted)
							}
							return nil
						}
					}
					_, err := Mine(Config{IRQ: 1, Workers: workers, Online: tc.online}, runs)
					if err == nil {
						t.Fatal("campaign with failing runs returned no error")
					}
					if !errors.Is(err, boom) {
						t.Errorf("error %v does not wrap the run's error", err)
					}
					if want := "campaign: run 3: "; !strings.HasPrefix(err.Error(), want) {
						t.Errorf("error %q, want prefix %q", err, want)
					}
					// Exiting goroutines, here or from earlier tests, may
					// still be counted for a moment.
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if n := runtime.NumGoroutine(); n > before {
						t.Errorf("%d goroutines after Mine, %d before", n, before)
					}
				})
			}
		})
	}
}

// TestMineOnlineOutOfOrderCompletion makes every run finish after the run
// behind it (run i waits for run i+1), so the collector receives results
// in reverse order and must hold them until their turn. Intermediate
// rankings must still see a nondecreasing batch count, and the final
// ranking must be bit-identical to the one-shot campaign.
func TestMineOnlineOutOfOrderCompletion(t *testing.T) {
	periods := []int{20, 40, 60, 80}
	// Each run records itself in finished before releasing the run ahead
	// of it, so the channel chain orders the appends.
	runs := func(done []chan struct{}, finished *[]int) []RunFunc {
		out := make([]RunFunc, len(periods))
		for i, d := range periods {
			i, d := i, d
			out[i] = func(attach Attach) error {
				run, err := apps.RunOscilloscope(apps.OscConfig{
					PeriodMS: d, Seconds: 1, Seed: uint64(7 + i),
					Stream:         map[int]trace.StreamSink{apps.OscSensorID: attach(apps.OscSensorID)},
					DiscardMarkers: true,
				})
				if err != nil {
					return err
				}
				run.Release()
				if done == nil {
					return nil
				}
				if i+1 < len(done) {
					<-done[i+1]
				}
				*finished = append(*finished, i)
				close(done[i])
				return nil
			}
		}
		return out
	}
	cfg := Config{IRQ: dev.IRQADC, Nodes: []int{apps.OscSensorID}, Workers: len(periods)}
	want, err := Mine(cfg, runs(nil, nil))
	if err != nil {
		t.Fatal(err)
	}

	done := make([]chan struct{}, len(periods))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var finished, batches, totals []int
	cfg.Online = &OnlineOptions{
		RefitEvery: 1,
		TopK:       5,
		OnRanking: func(r *core.OnlineRanking) {
			batches = append(batches, r.Batches)
			totals = append(totals, r.Total)
		},
	}
	got, err := Mine(cfg, runs(done, &finished))
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range finished {
		if run != len(periods)-1-i {
			t.Fatalf("runs finished in order %v, want reverse order", finished)
		}
	}
	if len(batches) != len(periods) {
		t.Fatalf("%d intermediate rankings, want one per run (%d)", len(batches), len(periods))
	}
	for i := 1; i < len(batches); i++ {
		if batches[i] < batches[i-1] {
			t.Fatalf("intermediate batch counts %v decrease", batches)
		}
	}
	// Refit k must have scored exactly runs 1..k: ingestion follows run
	// order, not completion order.
	perRun := make([]int, len(periods)+1)
	for _, s := range want.Samples {
		perRun[s.Run]++
	}
	for k, total := range totals {
		n := 0
		for run := 1; run <= k+1; run++ {
			n += perRun[run]
		}
		if total != n {
			t.Fatalf("refit %d scored %d intervals, want runs 1..%d's %d", k+1, total, k+1, n)
		}
	}
	if got.Excluded != want.Excluded || got.Dim != want.Dim || len(got.Samples) != len(want.Samples) {
		t.Fatalf("online ranking %d samples / %d excluded / %d dims, one-shot %d / %d / %d",
			len(got.Samples), got.Excluded, got.Dim, len(want.Samples), want.Excluded, want.Dim)
	}
	for i := range want.Samples {
		w, g := want.Samples[i], got.Samples[i]
		if w.Run != g.Run || w.Interval != g.Interval || math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("rank %d: online %+v, one-shot %+v", i, g, w)
		}
	}
}
