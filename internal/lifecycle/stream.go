// Online interval identification: the streaming sibling of Sequence.
//
// A Streamer consumes a node's lifecycle markers one at a time, as the
// recorder emits them (it implements trace.StreamSink), and advances the
// same analysis Extract performs over a materialized trace — the
// Definition-3 pushdown automaton over int-reti strings and the Criterion
// 1–3 post/run matching of Figure 4 — incrementally. Each in-flight
// interval's instruction counter (Definition 4) accumulates in place from
// the marker deltas, and the interval is finalized the moment its last
// item arrives. No marker-delta trace is materialized and no second pass
// happens; Finalize returns intervals and counters bit-identical to
// NewSequence(nt).Extract() plus Extractor.CounterSparse over the
// materialized trace of the same run (the equivalence the streaming tests
// and the fuzz corpus pin).
package lifecycle

import (
	"fmt"
	"slices"
	"sync"

	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// scratch is one in-flight interval's accumulation storage: the dense
// counter, its touched-PC list, and the reusable snapshot buffers (see
// ivState). All four recycle together.
type scratch struct {
	counts  []float64 // all-zero over full capacity between uses
	touched []int32
	snapIdx []int32
	snapVal []float64
}

// ScratchPool recycles the accumulation buffers streamers use for
// in-flight interval counters, plus the per-interval state arrays that do
// not outlive a streamer. One pool may serve many concurrent streamers
// (campaign fan-out). The zero value is ready to use; a nil *ScratchPool
// disables pooling (buffers are still reused within a streamer, just not
// across streamers).
type ScratchPool struct {
	p  sync.Pool // *scratch
	st sync.Pool // *[]ivState
}

func (sp *ScratchPool) getStates() []ivState {
	if sp != nil {
		if p, _ := sp.st.Get().(*[]ivState); p != nil {
			return (*p)[:0]
		}
	}
	return nil
}

func (sp *ScratchPool) putStates(st []ivState) {
	if sp == nil || cap(st) == 0 {
		return
	}
	st = st[:0]
	sp.st.Put(&st)
}

func (sp *ScratchPool) get(dim int) *scratch {
	if sp != nil {
		if s, _ := sp.p.Get().(*scratch); s != nil && cap(s.counts) >= dim {
			s.counts = s.counts[:dim]
			return s
		}
	}
	return &scratch{counts: make([]float64, dim)}
}

// put returns s, whose counts the caller has re-zeroed, to the pool.
func (sp *ScratchPool) put(s *scratch) {
	if sp == nil || s == nil {
		return
	}
	s.touched = s.touched[:0]
	s.snapIdx = s.snapIdx[:0]
	s.snapVal = s.snapVal[:0]
	sp.p.Put(s)
}

// ivState is the streaming state of one not-yet-finalized interval.
type ivState struct {
	open        bool
	handlerOpen bool
	// out is the interval's index in the output slices, -1 for intervals a
	// Keep filter drops: those carry only this structural state, never an
	// Interval or a counter.
	out int
	// startItem is the opening int(n)'s item index (kept here so filtered
	// intervals can still anchor malformed-sequence errors).
	startItem int
	// openPosts counts Criterion-1 ordinals owned by this interval whose
	// runTask has not arrived yet.
	openPosts int
	// lastRunItem is the item index of the latest owned runTask (-1
	// before any task of the instance ran).
	lastRunItem int

	// buf accumulates the interval's instruction counter: dense float64
	// scratch added to in marker order (the exact accumulation order of
	// Extractor.Counter), plus the touched PCs. Its snapIdx/snapVal
	// buffers hold the tentative-end counter copy; they are reused
	// across snapshot cycles so the common snapshot-then-discard path
	// (every post's reti precedes its runTask) allocates nothing in
	// steady state.
	buf *scratch

	// Tentative end: where the interval would end if the run truncated
	// now — the materialized algorithm's reti end (no owned task ran) or
	// taskEnd end (posts still pending) with Complete=false. A later
	// owned runTask discards it. The counter at the tentative end lives
	// in buf.snapIdx/buf.snapVal.
	snapOK             bool
	snapItem, snapMark int
	snapCycle          uint64
	snapTask           bool
}

// Streamer is the online anatomizer for one node. Feed it markers via
// OnMark (typically by installing it as the node recorder's
// trace.StreamSink), then call Finalize once the run ends.
type Streamer struct {
	nodeID int
	dim    int // program length; learned from the first marker's counts
	pool   *ScratchPool

	items     int // paper-visible items consumed
	markers   int // markers consumed
	lastCycle uint64

	// handlers is the pushdown automaton's stack of open int-reti
	// strings, bottom = earliest; values are interval slots.
	handlers []int
	// openSlots lists the slots still accumulating deltas.
	openSlots []int

	postOrd, runOrd int
	// postOwner maps a pending Criterion-1 post ordinal to the slot of
	// the interval that owns it (Criterion 2: the innermost open
	// handler; Criterion 3: the owner of the currently attributed task).
	postOwner map[int]int
	// curTask is the slot owning the most recent runTask's task, -1 when
	// none. It persists past the task's end — Criterion 3 attributes
	// depth-0 posts up to the *next* runTask.
	curTask int
	// watchEnd is the slot whose latest owned runTask awaits its TaskEnd
	// marker (the window-closing instrumentation), -1 when none.
	watchEnd int

	seq map[int]int

	// keep, when non-nil, limits counter accumulation and output to
	// these IRQs; structural analysis still sees every interval.
	keep map[int]bool

	ivs []Interval
	cnt []stats.Sparse
	st  []ivState

	err error
}

// static assertion: a Streamer plugs straight into a recorder.
var _ trace.StreamSink = (*Streamer)(nil)

// NewStreamer creates an online anatomizer for the node's marker stream.
// pool may be nil.
func NewStreamer(nodeID int, pool *ScratchPool) *Streamer {
	return &Streamer{
		nodeID:    nodeID,
		pool:      pool,
		postOwner: make(map[int]int),
		curTask:   -1,
		watchEnd:  -1,
		seq:       make(map[int]int),
		st:        pool.getStates(),
	}
}

// Err returns the first malformed-sequence error, if any.
func (s *Streamer) Err() error { return s.err }

// Keep restricts the streamer's output to intervals of the given IRQs.
// Structural analysis is unaffected — every interval still advances the
// automaton and owns its posts, exactly as without the filter — but
// intervals of other IRQs skip counter accumulation entirely and are
// omitted from Finalize, matching what a miner configured for these IRQs
// would keep. Call before the first marker.
func (s *Streamer) Keep(irqs ...int) *Streamer {
	s.keep = make(map[int]bool, len(irqs))
	for _, irq := range irqs {
		s.keep[irq] = true
	}
	return s
}

// OnMark implements trace.StreamSink: consume one marker and its delta.
func (s *Streamer) OnMark(kind trace.Kind, arg int, cycle uint64, instance int, touched []uint16, counts []uint32) {
	if s.err != nil {
		return
	}
	if s.dim == 0 {
		s.dim = len(counts)
	}
	m := s.markers
	s.markers++
	s.lastCycle = cycle

	// The counter window of an interval is (StartMarker, EndMarker]:
	// route this marker's delta into every open interval first, so an
	// interval finalized *at* this marker includes it and one opened at
	// this marker does not.
	if len(touched) > 0 {
		for _, slot := range s.openSlots {
			buf := s.st[slot].buf
			for _, pc := range touched {
				if buf.counts[pc] == 0 {
					buf.touched = append(buf.touched, int32(pc))
				}
				buf.counts[pc] += float64(counts[pc])
			}
		}
	}

	switch kind {
	case trace.Int:
		i := s.items
		s.items++
		slot := len(s.st)
		s.seq[arg]++
		st := ivState{
			open:        true,
			handlerOpen: true,
			out:         -1,
			startItem:   i,
			lastRunItem: -1,
		}
		if s.keep == nil || s.keep[arg] {
			// Filtered-out intervals keep their full structural role but
			// never produce an Interval, accumulate a counter, or join
			// openSlots.
			st.out = len(s.ivs)
			s.ivs = append(s.ivs, Interval{
				IRQ:         arg,
				Seq:         s.seq[arg],
				Node:        s.nodeID,
				StartItem:   i,
				StartMarker: m,
				StartCycle:  cycle,
				Truth:       instance,
			})
			s.cnt = append(s.cnt, stats.Sparse{})
			st.buf = s.pool.get(s.dim)
			s.openSlots = append(s.openSlots, slot)
		}
		s.st = append(s.st, st)
		s.handlers = append(s.handlers, slot)

	case trace.PostTask:
		s.items++
		k := s.postOrd
		s.postOrd++
		owner := s.curTask
		if len(s.handlers) > 0 {
			owner = s.handlers[len(s.handlers)-1]
		}
		// A depth-0 post comes from task code, so the owning interval is
		// necessarily still open (its task's TaskEnd has not fired); the
		// open check only shields against impossible marker sequences.
		if owner >= 0 && s.st[owner].open {
			s.postOwner[k] = owner
			s.st[owner].openPosts++
		}

	case trace.RunTask:
		i := s.items
		s.items++
		if len(s.handlers) > 0 {
			// A task cannot run while a handler is open (Rule 2); the
			// materialized analyzer reports this from the earliest open
			// int-reti string.
			s.err = fmt.Errorf("%w: runTask at item %d inside the handler window opened at item %d",
				ErrMalformed, i, s.st[s.handlers[0]].startItem)
			return
		}
		k := s.runOrd
		s.runOrd++
		owner := -1
		if o, ok := s.postOwner[k]; ok {
			owner = o
			delete(s.postOwner, k)
		}
		s.curTask = owner
		s.watchEnd = owner
		if owner >= 0 {
			st := &s.st[owner]
			st.openPosts--
			st.lastRunItem = i
			s.dropSnapshot(st)
		}

	case trace.Reti:
		i := s.items
		s.items++
		if len(s.handlers) == 0 {
			return // stray reti: not part of any tracked string
		}
		slot := s.handlers[len(s.handlers)-1]
		s.handlers = s.handlers[:len(s.handlers)-1]
		st := &s.st[slot]
		st.handlerOpen = false
		if st.lastRunItem < 0 {
			if st.openPosts == 0 {
				// No tasks: the interval is the handler window itself.
				s.finalize(slot, i, m, cycle, false, true)
			} else {
				// Posts pending, none ran yet: if the run truncates
				// before one does, the interval ends at this reti.
				s.snapshot(slot, i, m, cycle, false)
			}
		}

	case trace.TaskEnd:
		if s.watchEnd < 0 {
			return
		}
		slot := s.watchEnd
		s.watchEnd = -1
		st := &s.st[slot]
		if st.openPosts == 0 && !st.handlerOpen {
			s.finalize(slot, st.lastRunItem, m, cycle, true, true)
		} else {
			s.snapshot(slot, st.lastRunItem, m, cycle, true)
		}
	}
}

// sparsify emits the interval's accumulated counter as a sorted sparse
// vector — the exact output of Extractor.CounterSparse: per-PC sums
// accumulated in marker order, indices ascending.
func (s *Streamer) sparsify(st *ivState) stats.Sparse {
	if st.buf == nil {
		return stats.Sparse{}
	}
	t := st.buf.touched
	slices.Sort(t)
	out := stats.Sparse{
		Idx: make([]int32, len(t)),
		Val: make([]float64, len(t)),
		Dim: s.dim,
	}
	for i, pc := range t {
		out.Idx[i] = pc
		out.Val[i] = st.buf.counts[pc]
	}
	return out
}

// releaseScratch zeroes and recycles the interval's accumulation buffers.
func (s *Streamer) releaseScratch(st *ivState) {
	buf := st.buf
	if buf == nil {
		return
	}
	for _, pc := range buf.touched {
		buf.counts[pc] = 0
	}
	s.pool.put(buf)
	st.buf = nil
}

// snapshot records the tentative end and copies the current counter into
// the scratch's reusable snapshot buffers. The copy — not an allocation —
// is the cost of the common snapshot-then-discard cycle: every interval
// whose posts are still queued at its reti passes through here.
func (s *Streamer) snapshot(slot, endItem, endMarker int, cycle uint64, endsWithTask bool) {
	st := &s.st[slot]
	if buf := st.buf; buf != nil {
		slices.Sort(buf.touched)
		buf.snapIdx = append(buf.snapIdx[:0], buf.touched...)
		buf.snapVal = buf.snapVal[:0]
		for _, pc := range buf.touched {
			buf.snapVal = append(buf.snapVal, buf.counts[pc])
		}
	}
	st.snapOK = true
	st.snapItem = endItem
	st.snapMark = endMarker
	st.snapCycle = cycle
	st.snapTask = endsWithTask
}

// snapSparse materializes the snapshot buffers as the interval's counter.
func (s *Streamer) snapSparse(st *ivState) stats.Sparse {
	if st.buf == nil {
		return stats.Sparse{}
	}
	return stats.Sparse{
		Idx: append([]int32{}, st.buf.snapIdx...),
		Val: append([]float64{}, st.buf.snapVal...),
		Dim: s.dim,
	}
}

func (s *Streamer) dropSnapshot(st *ivState) {
	st.snapOK = false
}

func (s *Streamer) finalize(slot, endItem, endMarker int, cycle uint64, endsWithTask, complete bool) {
	st := &s.st[slot]
	if st.out >= 0 {
		iv := &s.ivs[st.out]
		iv.EndItem = endItem
		iv.EndMarker = endMarker
		iv.EndCycle = cycle
		iv.EndsWithTask = endsWithTask
		iv.Complete = complete
		s.cnt[st.out] = s.sparsify(st)
	}
	s.releaseScratch(st)
	s.dropSnapshot(st)
	st.open = false
	for i, o := range s.openSlots {
		if o == slot {
			s.openSlots = append(s.openSlots[:i], s.openSlots[i+1:]...)
			break
		}
	}
}

// Finalize closes the stream: intervals still in flight are marked
// incomplete exactly the way the materialized algorithm marks them when
// the trace ends mid-instance. It returns every interval in chronological
// order of its opening int(n) item, the matching sparse counters, and the
// first malformed-sequence error if one occurred.
//
// Call once, after the run's last marker.
func (s *Streamer) Finalize() ([]Interval, []stats.Sparse, error) {
	if s.err != nil {
		return nil, nil, s.err
	}
	for slot := range s.st {
		st := &s.st[slot]
		if !st.open {
			continue
		}
		if st.out >= 0 {
			iv := &s.ivs[st.out]
			iv.Complete = false
			switch {
			case st.handlerOpen:
				// Handler still running at trace end.
				iv.EndItem = s.items - 1
				iv.EndMarker = s.markers - 1
				iv.EndCycle = s.lastCycle
				s.cnt[st.out] = s.sparsify(st)
			case st.snapOK:
				// The tentative end stands: pending posts never ran past
				// it.
				iv.EndItem = st.snapItem
				iv.EndMarker = st.snapMark
				iv.EndCycle = st.snapCycle
				iv.EndsWithTask = st.snapTask
				s.cnt[st.out] = s.snapSparse(st)
			default:
				// An owned task ran but its TaskEnd never arrived (run
				// ended mid-task): the window extends to the trace end.
				iv.EndItem = st.lastRunItem
				iv.EndMarker = s.markers - 1
				iv.EndCycle = s.lastCycle
				iv.EndsWithTask = true
				s.cnt[st.out] = s.sparsify(st)
			}
		}
		s.releaseScratch(st)
		s.dropSnapshot(st)
		st.open = false
	}
	s.openSlots = s.openSlots[:0]
	// The per-interval state array never escapes the streamer; recycle it.
	s.pool.putStates(s.st)
	s.st = nil
	return s.ivs, s.cnt, nil
}

// Replay feeds a materialized node trace through a Streamer — the bridge
// that lets equivalence tests and `sentomist soak` cross-check the online
// anatomizer against the two-pass reference on any recorded trace.
func Replay(nt *trace.NodeTrace, pool *ScratchPool) ([]Interval, []stats.Sparse, error) {
	st := NewStreamer(nt.NodeID, pool)
	st.dim = nt.ProgramLen
	counts := make([]uint32, nt.ProgramLen)
	touched := make([]uint16, 0, 64)
	for i, m := range nt.Markers {
		touched = touched[:0]
		for _, d := range m.Deltas {
			if d.Count == 0 {
				continue
			}
			if counts[d.PC] == 0 {
				touched = append(touched, d.PC)
			}
			counts[d.PC] += d.Count
		}
		inst := -1
		if nt.TruthInstance != nil {
			inst = nt.TruthInstance[i]
		}
		st.OnMark(m.Kind, m.Arg, m.Cycle, inst, touched, counts)
		for _, pc := range touched {
			counts[pc] = 0
		}
	}
	return st.Finalize()
}
