package lifecycle_test

import (
	"bytes"
	"reflect"
	"testing"

	"sentomist/internal/asm"
	"sentomist/internal/dev"
	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/node"
	"sentomist/internal/randx"
	"sentomist/internal/sim"
	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// fuzzTargetSource is an application with every structural feature the
// Figure-4 algorithm must handle: three event types, handlers that post
// zero, one, or two tasks, tasks that post tasks, a preemptible handler,
// and a long task that is routinely preempted.
const fuzzTargetSource = `
.var acc

.vector 1, h_plain
.vector 2, h_posting
.vector 3, h_preemptible
.task 0, t_chain
.task 1, t_leaf
.task 2, t_long
.entry boot

boot:
	sei
	osrun

h_plain:
	push r0
	lds  r0, acc
	inc  r0
	sts  acc, r0
	pop  r0
	reti

h_posting:
	post 0
	post 2
	reti

h_preemptible:
	sei
	push r0
	ldi  r0, 30
hp_spin:
	dec  r0
	brne hp_spin
	pop  r0
	post 1
	reti

t_chain:
	post 1
	ret

t_leaf:
	push r0
	lds  r0, acc
	inc  r0
	sts  acc, r0
	pop  r0
	ret

t_long:
	push r0
	ldi  r0, 0
tl_spin:
	dec  r0
	brne tl_spin
	pop  r0
	ret
`

// TestExtractionMatchesTruthUnderRandomInterrupts drives the target with a
// Regehr-style random interrupt schedule — the hostile interleavings the
// paper says periodic testing cannot produce — and checks that black-box
// interval identification still matches the runtime's ground truth
// everywhere.
func TestExtractionMatchesTruthUnderRandomInterrupts(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		r, err := asm.String(fuzzTargetSource)
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.New(node.Config{ID: 1, Program: r.Program, Truth: true})
		if err != nil {
			t.Fatal(err)
		}
		n.Attach(dev.NewFuzzer(n, randx.New(seed), []int{1, 2, 3}, 40, 2500))
		s := sim.New(seed, []*node.Node{n}, nil)
		if err := s.Run(500_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nt := n.Trace()
		if err := (&trace.Trace{Nodes: []*trace.NodeTrace{nt}}).Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		verified := verifyNode(t, nt)
		if verified < 200 {
			t.Fatalf("seed %d: verified only %d intervals", seed, verified)
		}
		if t.Failed() {
			t.Fatalf("seed %d: ground-truth mismatches above", seed)
		}
	}
}

// fuzzTrace runs the fuzz target under the chosen engine and returns the
// serialized trace.
func fuzzTrace(t *testing.T, seed uint64, reference bool) []byte {
	t.Helper()
	r, err := asm.String(fuzzTargetSource)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{ID: 1, Program: r.Program, Truth: true})
	if err != nil {
		t.Fatal(err)
	}
	n.Attach(dev.NewFuzzer(n, randx.New(seed), []int{1, 2, 3}, 40, 2500))
	s := sim.New(seed, []*node.Node{n}, nil)
	if reference {
		s = sim.NewReference(seed, []*node.Node{n}, nil)
	}
	if err := s.Run(500_000); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	var buf bytes.Buffer
	if err := s.Trace().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineEquivalenceUnderRandomInterrupts widens the fuzz corpus into a
// differential harness: the batched event-horizon engine and the
// single-step reference engine must serialize byte-identical traces under
// every random interrupt schedule — including the preempted spins that
// exercise the block executor's loop folding.
func TestEngineEquivalenceUnderRandomInterrupts(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		fast := fuzzTrace(t, seed, false)
		ref := fuzzTrace(t, seed, true)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("seed %d: batched and reference traces differ (%d vs %d bytes)",
				seed, len(fast), len(ref))
		}
	}
}

// TestStreamingEquivalenceUnderRandomInterrupts extends the fuzz corpus to
// the online anatomizer: under every random interrupt schedule, a live
// Streamer attached to the recorder (with marker materialization still on)
// and a Replay over the materialized trace must both reproduce the
// two-pass reference — NewSequence(nt).Extract() intervals plus
// Extractor.CounterSparse counters — bit for bit.
func TestStreamingEquivalenceUnderRandomInterrupts(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		r, err := asm.String(fuzzTargetSource)
		if err != nil {
			t.Fatal(err)
		}
		live := lifecycle.NewStreamer(1)
		n, err := node.New(node.Config{
			ID: 1, Program: r.Program, Truth: true, Sink: live,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Attach(dev.NewFuzzer(n, randx.New(seed), []int{1, 2, 3}, 40, 2500))
		s := sim.New(seed, []*node.Node{n}, nil)
		if err := s.Run(500_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nt := n.Trace()

		wantIvs, err := lifecycle.NewSequence(nt).Extract()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ext := feature.NewExtractor(&trace.Trace{Nodes: []*trace.NodeTrace{nt}})
		wantCnt := make([]stats.Sparse, len(wantIvs))
		for i, iv := range wantIvs {
			if wantCnt[i], err = ext.CounterSparse(iv); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}

		liveIvs, liveCnt, err := live.Finalize()
		if err != nil {
			t.Fatalf("seed %d: live streamer: %v", seed, err)
		}
		repIvs, repCnt, err := lifecycle.Replay(nt)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		restore := lifecycle.SetMinCompact(1)
		cmpIvs, cmpCnt, err := lifecycle.Replay(nt)
		restore()
		if err != nil {
			t.Fatalf("seed %d: compacting replay: %v", seed, err)
		}

		for label, got := range map[string]struct {
			ivs []lifecycle.Interval
			cnt []stats.Sparse
		}{
			"live":       {liveIvs, liveCnt},
			"replay":     {repIvs, repCnt},
			"compacting": {cmpIvs, cmpCnt},
		} {
			if len(got.ivs) != len(wantIvs) {
				t.Fatalf("seed %d: %s: %d intervals, want %d", seed, label, len(got.ivs), len(wantIvs))
			}
			for i := range wantIvs {
				if !reflect.DeepEqual(got.ivs[i], wantIvs[i]) {
					t.Fatalf("seed %d: %s: interval %d:\n got: %+v\nwant: %+v",
						seed, label, i, got.ivs[i], wantIvs[i])
				}
				if !reflect.DeepEqual(got.cnt[i], wantCnt[i]) {
					t.Fatalf("seed %d: %s: counter %d diverges", seed, label, i)
				}
			}
		}
		if len(wantIvs) < 100 {
			t.Fatalf("seed %d: corpus too small: %d intervals", seed, len(wantIvs))
		}
	}
}
