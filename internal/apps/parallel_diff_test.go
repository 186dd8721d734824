package apps

// Differential testing of conservative-lookahead sections: every scenario
// is executed on the lockstep oracle (sections off) and again on the
// production engine at several GOMAXPROCS settings, and all serialized
// traces must be byte-identical. Sections are required to be a pure
// wall-clock optimization with no observable effect, exactly like the
// batched engine before them.

import (
	"fmt"
	"runtime"
	"testing"

	"sentomist/internal/sim"
)

// parallelWorkerCounts are the GOMAXPROCS settings the production engine
// is exercised at in every section differential scenario: 2, 4 and the
// host's own setting. Sections run inline, so no setting may change a
// trace or a scheduler counter; the recorder's sync.Pool buffers are kept
// per processor, so the setting does change which buffer a run reuses.
func parallelWorkerCounts() []int {
	counts := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p != 2 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// TestParallelEngineDifferential asserts byte-identical traces between the
// lockstep oracle and the production engine at every GOMAXPROCS setting of
// parallelWorkerCounts, on all three case studies, that every production
// run opened sections, and that the settings agree in every scheduler
// counter.
func TestParallelEngineDifferential(t *testing.T) {
	oscSeconds, fwdSeconds, ctpSeconds := 10.0, 20.0, 15.0
	if testing.Short() {
		oscSeconds, fwdSeconds, ctpSeconds = 2, 4, 3
	}
	scenarios := []struct {
		name string
		run  func(eng engine) (*Run, error)
	}{
		{"oscilloscope", func(eng engine) (*Run, error) {
			return RunOscilloscope(OscConfig{
				PeriodMS: 20, Seconds: oscSeconds, Seed: 100, engine: eng,
			})
		}},
		{"forwarder", func(eng engine) (*Run, error) {
			return RunForwarder(ForwarderConfig{
				Seconds: fwdSeconds, Seed: 7, engine: eng,
			})
		}},
		{"ctpheartbeat", func(eng engine) (*Run, error) {
			return RunCTPHeartbeat(CTPConfig{
				Seconds: ctpSeconds, Seed: 20, engine: eng,
			})
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ref, err := sc.run(lockstepOracle)
			if err != nil {
				t.Fatalf("lockstep oracle: %v", err)
			}
			var first *sim.Stats
			for _, w := range parallelWorkerCounts() {
				w := w
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
					prod, err := sc.run(production)
					if err != nil {
						t.Fatalf("production (GOMAXPROCS %d): %v", w, err)
					}
					assertTracesIdentical(t, ref.Trace, prod.Trace)
					assertSectionsRan(t, prod.Stats)
					if first == nil {
						first = &prod.Stats
					} else if prod.Stats != *first {
						t.Errorf("scheduler counters differ across GOMAXPROCS settings:\n%+v\n%+v", *first, prod.Stats)
					}
				})
			}
		})
	}
}

// assertSectionsRan fails unless a production run actually opened
// sections: a differential that never leaves lockstep compares nothing.
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
