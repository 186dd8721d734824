package synth

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"sentomist/internal/sim"
)

// multihopTrace runs the benchmark scenario on the production engine, or on
// the lockstep oracle (NodeWorkers == 1), and returns the serialized trace
// and the scheduler counters.
func multihopTrace(t testing.TB, nodes int, lockstep bool, seconds float64) ([]byte, sim.Stats) {
	t.Helper()
	cfg := MultihopConfig{Nodes: nodes, Seconds: seconds, Seed: 1}
	if lockstep {
		cfg.NodeWorkers = 1
	}
	r, err := Multihop(cfg)
	if err != nil {
		t.Fatalf("multihop(nodes=%d lockstep=%v): %v", nodes, lockstep, err)
	}
	var b bytes.Buffer
	if err := r.Trace.WriteBinary(&b); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b.Bytes(), r.Stats
}

// TestMultihopDeliversAcrossHops: the benchmark scenario must actually
// exercise multi-hop radio traffic — packets originated at the head of the
// chain reach nodes several hops away — and must engage the section
// scheduler.
func TestMultihopDeliversAcrossHops(t *testing.T) {
	r, err := Multihop(MultihopConfig{Nodes: 12, Seconds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Net.Deliveries()) == 0 {
		t.Fatal("no radio deliveries; benchmark scenario is not exercising the medium")
	}
	sinkRx, err := r.RAM(11, "rxn")
	if err != nil {
		t.Fatal(err)
	}
	if sinkRx == 0 {
		t.Fatal("sink received nothing; traffic is not traversing the chain")
	}
	if r.Stats.ParallelSections == 0 {
		t.Fatal("no parallel sections ran; the scenario never left lockstep")
	}
	if r.Stats.StagedEvents == 0 {
		t.Fatal("no staged medium events; sections never overlapped radio submits")
	}
}

// TestSectionsStartNoGoroutine: sections run on the scheduler goroutine, so
// a recording with sections on must leave exactly the goroutines it found,
// with no grace period for workers to wind down. Campaigns build thousands
// of sims; any goroutine a section started would pile up across them.
func TestSectionsStartNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	r, err := Multihop(MultihopConfig{Nodes: 12, Seconds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if r.Stats.ParallelSections == 0 {
		t.Fatal("no sections ran; the guard is not measuring the section path")
	}
	if after != before {
		t.Fatalf("%d goroutines before the recording, %d after", before, after)
	}
}

// TestMultihopParallelDifferential: the benchmark scenario's trace must be
// byte-identical between the production engine and the lockstep oracle,
// across chain lengths, and every production run must open sections.
func TestMultihopParallelDifferential(t *testing.T) {
	for _, nodes := range []int{8, 12, 16} {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			seconds := 1.0
			if testing.Short() {
				seconds = 0.3
			}
			ref, _ := multihopTrace(t, nodes, true, seconds)
			prod, st := multihopTrace(t, nodes, false, seconds)
			if !bytes.Equal(ref, prod) {
				t.Errorf("trace differs from the lockstep oracle (%d vs %d bytes)", len(prod), len(ref))
			}
			if st.ParallelSections == 0 {
				t.Fatalf("no sections ran: %+v", st)
			}
			if st.ParallelAdvances < 2*st.ParallelSections {
				t.Errorf("%d advances over %d sections: a section advances at least two nodes",
					st.ParallelAdvances, st.ParallelSections)
			}
		})
	}
}

// generatedTrace records a generated scenario and returns its serialized
// trace and scheduler counters.
func generatedTrace(t *testing.T, cfg Config) ([]byte, sim.Stats) {
	t.Helper()
	r, err := Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d lockstep=%v: %v", cfg.Seed, cfg.Lockstep, err)
	}
	var b bytes.Buffer
	if err := r.Trace.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), r.Stats
}

// TestParallelRandomTopologies is the deterministic many-node differential
// sweep: random generated scenarios (random topologies, fuzzers, radio
// beacons) must produce byte-identical traces on the production engine and
// on the lockstep oracle. FuzzParallelTrace extends the same check to
// fuzzed inputs.
func TestParallelRandomTopologies(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	var sections uint64
	for seed := 0; seed < seeds; seed++ {
		cfg := Config{Seed: uint64(seed), ExactNodes: 8, Seconds: 0.5}
		prod, st := generatedTrace(t, cfg)
		cfg.Lockstep = true
		ref, _ := generatedTrace(t, cfg)
		if !bytes.Equal(ref, prod) {
			t.Errorf("seed %d: trace differs from the lockstep oracle (%d vs %d bytes)",
				seed, len(prod), len(ref))
		}
		sections += st.ParallelSections
	}
	if sections == 0 {
		t.Fatal("no sections ran on any seed; the sweep compares lockstep with itself")
	}
}

// FuzzParallelTrace fuzzes the section scheduler's equivalence gate over
// many-node topologies: for any generation seed and node count, the
// production engine's serialized trace must be byte-identical to the
// lockstep oracle's run of the same scenario.
func FuzzParallelTrace(f *testing.F) {
	f.Add(uint64(1), uint8(8))
	f.Add(uint64(7), uint8(12))
	f.Add(uint64(42), uint8(3))
	f.Add(uint64(1234), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, nodes uint8) {
		n := int(nodes%16) + 2
		cfg := Config{Seed: seed, ExactNodes: n, Seconds: 0.3}
		prod, _ := generatedTrace(t, cfg)
		cfg.Lockstep = true
		ref, _ := generatedTrace(t, cfg)
		if !bytes.Equal(ref, prod) {
			t.Fatalf("seed %d nodes %d: trace differs from the lockstep oracle (%d vs %d bytes)",
				seed, n, len(prod), len(ref))
		}
	})
}

// BenchmarkRecordParallelNodes measures the record phase of the multi-hop
// benchmark scenario on the lockstep oracle and on the production engine
// with sections. b.ReportMetric publishes the simulated-cycles-per-second
// rate so runs on different hardware compare.
func BenchmarkRecordParallelNodes(b *testing.B) {
	const seconds = 2.0
	for _, bc := range []struct {
		name    string
		workers int
	}{{"lockstep-oracle", 1}, {"sections", 0}} {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Multihop(MultihopConfig{
					Nodes: 12, Seconds: seconds, Seed: 1, NodeWorkers: bc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				r.Release()
			}
			b.ReportMetric(seconds*1e6*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}
