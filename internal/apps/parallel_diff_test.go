package apps

// Differential testing of the parallel node scheduler: every scenario is
// executed sequentially and again with conservative-lookahead sections at
// several worker counts, and all serialized traces must be byte-identical.
// Parallel node execution is required to be a pure wall-clock optimization
// with no observable effect, exactly like the batched engine before it.

import (
	"fmt"
	"runtime"
	"testing"
)

// parallelWorkerCounts are the worker settings every parallel differential
// scenario is exercised at, beyond the sequential baseline.
func parallelWorkerCounts() []int {
	counts := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p != 2 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// TestParallelEngineDifferential asserts byte-identical traces between the
// sequential scheduler and the parallel sections at every worker count, on
// all three case studies.
func TestParallelEngineDifferential(t *testing.T) {
	oscSeconds, fwdSeconds, ctpSeconds := 10.0, 20.0, 15.0
	if testing.Short() {
		oscSeconds, fwdSeconds, ctpSeconds = 2, 4, 3
	}
	scenarios := []struct {
		name string
		run  func(workers int) (*Run, error)
	}{
		{"oscilloscope", func(w int) (*Run, error) {
			return RunOscilloscope(OscConfig{
				PeriodMS: 20, Seconds: oscSeconds, Seed: 100, nodeWorkers: w,
			})
		}},
		{"forwarder", func(w int) (*Run, error) {
			return RunForwarder(ForwarderConfig{
				Seconds: fwdSeconds, Seed: 7, nodeWorkers: w,
			})
		}},
		{"ctpheartbeat", func(w int) (*Run, error) {
			return RunCTPHeartbeat(CTPConfig{
				Seconds: ctpSeconds, Seed: 20, nodeWorkers: w,
			})
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			seq, err := sc.run(1)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, w := range parallelWorkerCounts() {
				w := w
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					par, err := sc.run(w)
					if err != nil {
						t.Fatalf("parallel(%d): %v", w, err)
					}
					assertTracesIdentical(t, seq.Trace, par.Trace)
				})
			}
		})
	}
}
