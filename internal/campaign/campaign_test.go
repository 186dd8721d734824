package campaign

import (
	"errors"
	"runtime"
	"strings"
	"testing"
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
