package medium

import "testing"

// FuzzEventQueueOrder drives the typed event heap with interleaved pushes
// and pops and checks every pop against a linear scan for the least
// (at, seq) pair: the fire order the network's replay determinism rests on.
// Each input byte is one operation. A byte with the high bit set pops; any
// other byte pushes an event at (byte & 0x0f) + the fire time of the last
// pop, so fire times tie often and never precede an event already fired.
// The queue is drained at the end. Seeds live in testdata/fuzz.
func FuzzEventQueueOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			q       eventQueue
			pending []*event // the same events, unordered
			seq     uint64
			base    uint64
		)
		pop := func() {
			want := 0
			for i, e := range pending {
				w := pending[want]
				if e.at < w.at || e.at == w.at && e.seq < w.seq {
					want = i
				}
			}
			got := q.pop()
			if got != pending[want] {
				t.Fatalf("popped (at %d, seq %d), want (at %d, seq %d)",
					got.at, got.seq, pending[want].at, pending[want].seq)
			}
			pending = append(pending[:want], pending[want+1:]...)
			base = got.at
		}
		for _, op := range ops {
			if op&0x80 != 0 {
				if len(pending) > 0 {
					pop()
				}
				continue
			}
			seq++
			e := &event{at: base + uint64(op&0x0f), seq: seq}
			q.push(e)
			pending = append(pending, e)
		}
		for len(pending) > 0 {
			pop()
		}
		if len(q) != 0 {
			t.Fatalf("%d events left after draining", len(q))
		}
	})
}
