package campaign

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"sentomist/internal/apps"
	"sentomist/internal/core"
	"sentomist/internal/dev"
	"sentomist/internal/trace"
)

// TestPoolWorkers pins the run-pool budget: an explicit Workers wins, and
// the GOMAXPROCS default shrinks by the node-section workers each run
// brings — resolved exactly as the engine resolves NodeWorkers, so the
// GOMAXPROCS sentinel (-1) cannot oversubscribe the machine.
func TestPoolWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct {
		name                 string
		workers, nodeWorkers int
		runs                 int
		want                 int
	}{
		{"default/sequential", 0, 0, 10, 4},
		{"default/one-node-worker", 0, 1, 10, 4},
		{"default/two-node-workers", 0, 2, 10, 2},
		{"default/gomaxprocs-node-workers", 0, -1, 10, 1},
		{"explicit/sequential", 3, 0, 10, 3},
		{"explicit/one-node-worker", 3, 1, 10, 3},
		{"explicit/two-node-workers", 3, 2, 10, 3},
		{"explicit/gomaxprocs-node-workers", 3, -1, 10, 3},
		{"default/fewer-runs", 0, 0, 2, 2},
		{"explicit/fewer-runs", 8, 0, 3, 3},
		{"explicit/fewer-runs-parallel", 8, -1, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := poolWorkers(Config{Workers: tc.workers, NodeWorkers: tc.nodeWorkers}, tc.runs)
			if got != tc.want {
				t.Errorf("poolWorkers(Workers=%d, NodeWorkers=%d, runs=%d) = %d, want %d",
					tc.workers, tc.nodeWorkers, tc.runs, got, tc.want)
			}
		})
	}
}

// TestMineRunError checks that a run failing mid-campaign aborts both the
// one-shot and the online path with the failing run's 1-based index and
// the original error wrapped.
func TestMineRunError(t *testing.T) {
	boom := errors.New("boom")
	const failing = 3
	runs := make([]RunFunc, 5)
	for i := range runs {
		i := i
		runs[i] = func(Attach) error {
			if i+1 == failing {
				return boom
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name   string
		online *OnlineOptions
	}{
		{"one-shot", nil},
		{"online", &OnlineOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Mine(Config{IRQ: 1, Workers: 2, Online: tc.online}, runs)
			if err == nil {
				t.Fatal("campaign with a failing run returned no error")
			}
			if !errors.Is(err, boom) {
				t.Errorf("error %v does not wrap the run's error", err)
			}
			if want := "campaign: run 3: "; !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error %q, want prefix %q", err, want)
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
