package synth

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"sentomist/internal/sim"
)

// multihopTrace runs the benchmark scenario at the given worker count and
// returns the serialized trace and the scheduler counters.
func multihopTrace(t testing.TB, nodes, workers int, seconds float64) ([]byte, sim.Stats) {
	t.Helper()
	r, err := Multihop(MultihopConfig{
		Nodes: nodes, Seconds: seconds, Seed: 1, NodeWorkers: workers,
	})
	if err != nil {
		t.Fatalf("multihop(nodes=%d workers=%d): %v", nodes, workers, err)
	}
	var b bytes.Buffer
	if err := r.Trace.WriteBinary(&b); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b.Bytes(), r.Stats
}

// TestMultihopDeliversAcrossHops: the benchmark scenario must actually
// exercise multi-hop radio traffic — packets originated at the head of the
// chain reach nodes several hops away — and must engage the parallel
// scheduler when workers are enabled.
func TestMultihopDeliversAcrossHops(t *testing.T) {
	r, err := Multihop(MultihopConfig{Nodes: 12, Seconds: 2, Seed: 1, NodeWorkers: 4})
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
	r, err := Multihop(MultihopConfig{Nodes: 12, Seconds: 2, Seed: 1, NodeWorkers: 2})
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
// byte-identical between lockstep rounds and sections at every tested
// worker count, across chain lengths. Every run with sections on must open
// some, and every worker count must give the same scheduler counters.
func TestMultihopParallelDifferential(t *testing.T) {
	counts := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 4 {
		counts = append(counts, p) // at 1, the count keeps sections off
	}
	for _, nodes := range []int{8, 12, 16} {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			seconds := 1.0
			if testing.Short() {
				seconds = 0.3
			}
			seq, _ := multihopTrace(t, nodes, 1, seconds)
			var first sim.Stats
			for i, w := range counts {
				par, st := multihopTrace(t, nodes, w, seconds)
				if !bytes.Equal(seq, par) {
					t.Errorf("workers=%d: trace differs from sequential (%d vs %d bytes)",
						w, len(seq), len(par))
				}
				if st.ParallelSections == 0 {
					t.Fatalf("workers=%d: no sections ran: %+v", w, st)
				}
				if st.ParallelAdvances < 2*st.ParallelSections {
					t.Errorf("workers=%d: %d advances over %d sections: a section advances at least two nodes",
						w, st.ParallelAdvances, st.ParallelSections)
				}
				if i == 0 {
					first = st
				} else if st != first {
					t.Errorf("workers=%d: scheduler counters differ from the first run with sections on (workers=%d):\n%+v\n%+v",
						w, counts[0], first, st)
				}
			}
		})
	}
}

// TestParallelRandomTopologies is the deterministic many-node differential
// sweep: random generated scenarios (random topologies, fuzzers, radio
// beacons) must produce byte-identical traces sequential vs parallel at
// every tested worker count. FuzzParallelTrace extends the same check to
// fuzzed inputs.
func TestParallelRandomTopologies(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := Config{Seed: uint64(seed), ExactNodes: 8, Seconds: 0.5}
		seq, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var sb bytes.Buffer
		if err := seq.Trace.WriteBinary(&sb); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
			cfg.NodeWorkers = w
			par, err := Generate(cfg)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			var pb bytes.Buffer
			if err := par.Trace.WriteBinary(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Errorf("seed %d workers %d: trace differs (%d vs %d bytes)",
					seed, w, sb.Len(), pb.Len())
			}
		}
	}
}

// FuzzParallelTrace fuzzes the parallel scheduler's equivalence gate over
// many-node topologies: for any generation seed, node count, and worker
// count, the serialized trace must be byte-identical to the sequential run
// of the same scenario.
func FuzzParallelTrace(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(4))
	f.Add(uint64(7), uint8(12), uint8(2))
	f.Add(uint64(42), uint8(3), uint8(3))
	f.Add(uint64(1234), uint8(16), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, workers uint8) {
		n := int(nodes%16) + 2
		w := int(workers%8) + 2
		cfg := Config{Seed: seed, ExactNodes: n, Seconds: 0.3}
		seq, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sb bytes.Buffer
		if err := seq.Trace.WriteBinary(&sb); err != nil {
			t.Fatal(err)
		}
		cfg.NodeWorkers = w
		par, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var pb bytes.Buffer
		if err := par.Trace.WriteBinary(&pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
			t.Fatalf("seed %d nodes %d workers %d: parallel trace differs (%d vs %d bytes)",
				seed, n, w, sb.Len(), pb.Len())
		}
	})
}

// BenchmarkRecordParallelNodes measures the record phase of the multi-hop
// benchmark scenario with sections off and on (the worker counts the name
// recalls all select the same run now). b.ReportMetric publishes the
// simulated-cycles-per-second rate so runs on different hardware compare.
func BenchmarkRecordParallelNodes(b *testing.B) {
	const seconds = 2.0
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sections=off", 0}, {"sections=on", 2}} {
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
