package trace

import (
	"reflect"
	"testing"
)

func recordSample(nodeID int, truth bool) *NodeTrace {
	r := NewRecorder(nodeID, 16, truth)
	for m := 0; m < 300; m++ {
		r.CountPC(uint16(m % 16))
		r.CountPC(uint16((m + 3) % 16))
		kind := []Kind{Int, PostTask, Reti, RunTask, TaskEnd}[m%5]
		r.Mark(kind, m%4, uint64(m*7), m)
	}
	nt := r.Finish()
	r.Release()
	return nt
}

// TestRecorderPoolRoundtrip pins the pooling invariants: traces recorded
// after earlier ones were released are identical to a fresh recording, and
// released buffers come back clean (no stale deltas, counts, or truth).
func TestRecorderPoolRoundtrip(t *testing.T) {
	want := recordSample(1, true)
	// Deep-copy the reference before releasing its storage.
	ref := &NodeTrace{NodeID: want.NodeID, ProgramLen: want.ProgramLen}
	for _, m := range want.Markers {
		cp := m
		cp.Deltas = append([]Delta(nil), m.Deltas...)
		ref.Markers = append(ref.Markers, cp)
	}
	ref.TruthInstance = append([]int(nil), want.TruthInstance...)
	want.Release()
	want.Release() // idempotent

	for round := 0; round < 3; round++ {
		got := recordSample(1, true)
		if len(got.Markers) != len(ref.Markers) {
			t.Fatalf("round %d: %d markers, want %d", round, len(got.Markers), len(ref.Markers))
		}
		for i := range ref.Markers {
			if !reflect.DeepEqual(got.Markers[i], ref.Markers[i]) {
				t.Fatalf("round %d marker %d: %+v want %+v", round, i, got.Markers[i], ref.Markers[i])
			}
		}
		if !reflect.DeepEqual(got.TruthInstance, ref.TruthInstance) {
			t.Fatalf("round %d: truth drifted", round)
		}
		got.Release()
	}

	// A recording made after a release draws its truth storage from the
	// pool: it allocates exactly what the same recording without truth
	// does, plus the one slice header the pool boxes on release.
	if raceEnabled {
		return
	}
	cycle := func(truth bool) func() {
		return func() { recordSample(1, truth).Release() }
	}
	withTruth := testing.AllocsPerRun(20, cycle(true))
	without := testing.AllocsPerRun(20, cycle(false))
	if withTruth > without+1 {
		t.Fatalf("recording with truth: %.1f allocs per run, without: %.1f; truth storage is not recycled",
			withTruth, without)
	}
}

// TestRecorderDiscardMode: with discard set and no sink, the trace stays
// empty while the dense counter cycle still runs.
func TestRecorderDiscardMode(t *testing.T) {
	r := NewRecorder(2, 8, false)
	r.SetSink(nil, true)
	for m := 0; m < 50; m++ {
		r.CountPC(uint16(m % 8))
		r.Mark(Int, 1, uint64(m), -1)
	}
	nt := r.Finish()
	if len(nt.Markers) != 0 || len(nt.TruthInstance) != 0 {
		t.Fatalf("discard mode materialized %d markers, %d truth entries",
			len(nt.Markers), len(nt.TruthInstance))
	}
	r.Release()
	r.Release() // idempotent
}

type captureSink struct {
	kinds  []Kind
	deltas [][]Delta
}

func (c *captureSink) OnMark(kind Kind, arg int, cycle uint64, instance int, touched []uint16, counts []uint32) {
	c.kinds = append(c.kinds, kind)
	var ds []Delta
	for _, pc := range touched {
		ds = append(ds, Delta{PC: pc, Count: counts[pc]})
	}
	c.deltas = append(c.deltas, ds)
}

// TestSinkSeesMaterializedDeltas: the sink observes exactly the deltas the
// materialized trace records, in the same order, whether or not markers
// are also materialized.
func TestSinkSeesMaterializedDeltas(t *testing.T) {
	for _, discard := range []bool{false, true} {
		sink := &captureSink{}
		r := NewRecorder(3, 16, false)
		r.SetSink(sink, discard)
		r.CountPC(5)
		r.CountPC(5)
		r.CountPC(2)
		r.Mark(Int, 1, 10, -1)
		r.CountPC(7)
		r.Mark(Reti, 0, 20, -1)
		r.Mark(PostTask, 0, 30, -1) // empty delta
		nt := r.Finish()

		wantKinds := []Kind{Int, Reti, PostTask}
		wantDeltas := [][]Delta{{{PC: 5, Count: 2}, {PC: 2, Count: 1}}, {{PC: 7, Count: 1}}, nil}
		if !reflect.DeepEqual(sink.kinds, wantKinds) || !reflect.DeepEqual(sink.deltas, wantDeltas) {
			t.Fatalf("discard=%v: sink saw %v %v", discard, sink.kinds, sink.deltas)
		}
		if discard {
			if len(nt.Markers) != 0 {
				t.Fatalf("discard mode materialized markers")
			}
		} else {
			for i, m := range nt.Markers {
				var want []Delta
				if len(wantDeltas[i]) > 0 {
					want = wantDeltas[i]
				}
				if !reflect.DeepEqual(append([]Delta(nil), m.Deltas...), want) && !(len(m.Deltas) == 0 && want == nil) {
					t.Fatalf("marker %d deltas %v want %v", i, m.Deltas, want)
				}
			}
		}
		r.Release()
	}
}
