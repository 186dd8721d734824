package apps

// Differential testing of conservative-lookahead sections: every scenario
// is executed on lockstep rounds and again with sections on at several of
// the knob's historical worker counts, and all serialized traces must be
// byte-identical. Sections are required to be a pure wall-clock
// optimization with no observable effect, exactly like the batched engine
// before them.

import (
	"fmt"
	"runtime"
	"testing"

	"sentomist/internal/sim"
)

// parallelWorkerCounts are the worker settings every section differential
// scenario is exercised at, beyond the sequential baseline. Each turns
// sections on; they must agree in trace and in every scheduler counter.
// GOMAXPROCS 1 is skipped: a worker count of 1 keeps sections off.
func parallelWorkerCounts() []int {
	counts := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// TestParallelEngineDifferential asserts byte-identical traces between the
// lockstep scheduler and sections at every worker count, on all three case
// studies, and that every run with sections on opened some.
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
			var first *sim.Stats
			for _, w := range parallelWorkerCounts() {
				w := w
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					par, err := sc.run(w)
					if err != nil {
						t.Fatalf("parallel(%d): %v", w, err)
					}
					assertTracesIdentical(t, seq.Trace, par.Trace)
					assertSectionsRan(t, par.Stats)
					// Every worker count selects the same sections, so
					// every scheduler counter must agree.
					if first == nil {
						first = &par.Stats
					} else if par.Stats != *first {
						t.Errorf("scheduler counters differ across worker counts:\n%+v\n%+v", *first, par.Stats)
					}
				})
			}
		})
	}
}

// assertSectionsRan fails unless a run with sections on actually opened
// them: a differential that never leaves lockstep compares nothing.
func assertSectionsRan(t *testing.T, st sim.Stats) {
	t.Helper()
	if st.ParallelSections == 0 {
		t.Fatalf("no sections ran: %+v", st)
	}
	if st.ParallelAdvances < 2*st.ParallelSections {
		t.Errorf("%d advances over %d sections: a section advances at least two nodes",
			st.ParallelAdvances, st.ParallelSections)
	}
}
