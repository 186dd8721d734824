package apps

// Differential testing of the emulation engines: every application scenario
// is executed twice — once on the production engine (batched, event
// horizon, sections on) and once on the single-step fixed-quantum reference
// engine (referenceOracle) — and the two traces must be byte-identical after
// serialization. This is the hard equivalence bar of the fast front-end:
// predecoded dispatch, basic-block batching, loop folding, and event-horizon
// scheduling are all pure optimizations with no observable effect.

import (
	"bytes"
	"fmt"
	"testing"

	"sentomist/internal/trace"
)

// diffScenario is one app configuration run under both engines.
type diffScenario struct {
	name string
	run  func(eng engine) (*Run, error)
}

// diffScenarios covers every program in this package: the three case
// studies, their fixed variants, the sequential-semantics mode, all five
// Case-I sampling periods, and Case III at four seeds and on lossy links.
// Durations shrink under -short; the full paper durations run in CI's long
// mode.
func diffScenarios(short bool) []diffScenario {
	oscSeconds, fwdSeconds, ctpSeconds := 10.0, 20.0, 15.0
	periods := []int{20, 40, 60, 80, 100}
	if short {
		oscSeconds, fwdSeconds, ctpSeconds = 2, 4, 3
		periods = []int{20, 100}
	}
	var scs []diffScenario
	for i, d := range periods {
		d := d
		seed := uint64(100 + i)
		scs = append(scs, diffScenario{
			name: fmt.Sprintf("oscilloscope/D=%dms", d),
			run: func(eng engine) (*Run, error) {
				return RunOscilloscope(OscConfig{
					PeriodMS: d, Seconds: oscSeconds, Seed: seed, engine: eng,
				})
			},
		})
	}
	scs = append(scs,
		diffScenario{"oscilloscope/fixed", func(eng engine) (*Run, error) {
			return RunOscilloscope(OscConfig{
				PeriodMS: 20, Seconds: oscSeconds, Seed: 100, Fixed: true, engine: eng,
			})
		}},
		diffScenario{"oscilloscope/sequential", func(eng engine) (*Run, error) {
			return RunOscilloscope(OscConfig{
				PeriodMS: 20, Seconds: oscSeconds, Seed: 1, Sequential: true, engine: eng,
			})
		}},
		diffScenario{"forwarder", func(eng engine) (*Run, error) {
			return RunForwarder(ForwarderConfig{Seconds: fwdSeconds, Seed: 7, engine: eng})
		}},
		diffScenario{"forwarder/fixed", func(eng engine) (*Run, error) {
			return RunForwarder(ForwarderConfig{Seconds: fwdSeconds, Seed: 7, Fixed: true, engine: eng})
		}},
		diffScenario{"ctpheartbeat", func(eng engine) (*Run, error) {
			return RunCTPHeartbeat(CTPConfig{Seconds: ctpSeconds, Seed: 20, engine: eng})
		}},
		diffScenario{"ctpheartbeat/fixed", func(eng engine) (*Run, error) {
			return RunCTPHeartbeat(CTPConfig{Seconds: ctpSeconds, Seed: 20, Fixed: true, engine: eng})
		}},
		// Every link at 60% loss: handshakes exhaust MaxRetries (TX-done
		// with no ACK) and the congested channel makes CSMA give up.
		diffScenario{"ctpheartbeat/lossy", func(eng engine) (*Run, error) {
			return runCTPHeartbeat(CTPConfig{Seconds: ctpSeconds, Seed: 20, engine: eng}, 0.6)
		}},
	)
	for _, seed := range []uint64{21, 22, 23} {
		seed := seed
		scs = append(scs, diffScenario{fmt.Sprintf("ctpheartbeat/seed=%d", seed), func(eng engine) (*Run, error) {
			return RunCTPHeartbeat(CTPConfig{Seconds: ctpSeconds, Seed: seed, engine: eng})
		}})
	}
	return scs
}

// TestEngineDifferential asserts byte-identical traces between the batched
// and reference engines on every scenario.
func TestEngineDifferential(t *testing.T) {
	for _, sc := range diffScenarios(testing.Short()) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			fast, err := sc.run(production)
			if err != nil {
				t.Fatalf("batched engine: %v", err)
			}
			ref, err := sc.run(referenceOracle)
			if err != nil {
				t.Fatalf("reference engine: %v", err)
			}
			assertTracesIdentical(t, ref.Trace, fast.Trace)
		})
	}
}

// assertTracesIdentical serializes both traces and compares the bytes; on
// mismatch it locates and reports the first diverging marker so engine bugs
// are debuggable rather than a wall of hex.
func assertTracesIdentical(t *testing.T, ref, fast *trace.Trace) {
	t.Helper()
	var rb, fb bytes.Buffer
	if err := ref.WriteBinary(&rb); err != nil {
		t.Fatalf("encode reference: %v", err)
	}
	if err := fast.WriteBinary(&fb); err != nil {
		t.Fatalf("encode batched: %v", err)
	}
	if bytes.Equal(rb.Bytes(), fb.Bytes()) {
		return
	}
	t.Errorf("serialized traces differ (%d vs %d bytes)", rb.Len(), fb.Len())
	if ref.Cycles != fast.Cycles {
		t.Errorf("run length: reference %d cycles, batched %d", ref.Cycles, fast.Cycles)
	}
	for _, rn := range ref.Nodes {
		fn := fast.Node(rn.NodeID)
		if fn == nil {
			t.Errorf("node %d missing from batched trace", rn.NodeID)
			continue
		}
		reportMarkerDivergence(t, rn, fn)
	}
}

func reportMarkerDivergence(t *testing.T, ref, fast *trace.NodeTrace) {
	t.Helper()
	n := len(ref.Markers)
	if len(fast.Markers) != n {
		t.Errorf("node %d: %d markers (reference) vs %d (batched)",
			ref.NodeID, n, len(fast.Markers))
		if len(fast.Markers) < n {
			n = len(fast.Markers)
		}
	}
	for i := 0; i < n; i++ {
		rm, fm := ref.Markers[i], fast.Markers[i]
		if equalMarkers(rm, fm) {
			continue
		}
		t.Errorf("node %d marker %d diverges:\n  reference: %s minSP=%#04x deltas=%v\n  batched:   %s minSP=%#04x deltas=%v",
			ref.NodeID, i, rm, rm.MinSP, rm.Deltas, fm, fm.MinSP, fm.Deltas)
		return
	}
}

func equalMarkers(a, b trace.Marker) bool {
	if a.Kind != b.Kind || a.Arg != b.Arg || a.Cycle != b.Cycle || a.MinSP != b.MinSP {
		return false
	}
	if len(a.Deltas) != len(b.Deltas) {
		return false
	}
	for i := range a.Deltas {
		if a.Deltas[i] != b.Deltas[i] {
			return false
		}
	}
	return true
}
