// Online interval identification: the streaming sibling of Sequence.
//
// A Streamer consumes a node's lifecycle markers one at a time, as the
// recorder emits them (it implements trace.StreamSink), and advances the
// same analysis Extract performs over a materialized trace — the
// Definition-3 pushdown automaton over int-reti strings and the Criterion
// 1–3 post/run matching of Figure 4 — incrementally. Each in-flight
// interval's instruction counter (Definition 4) is read off running per-PC
// totals, and the interval is finalized the moment its last item arrives.
// No marker-delta trace is materialized and no second pass happens;
// Finalize returns intervals bit-identical to NewSequence(nt).Extract()
// over the materialized trace of the same run, and for every complete
// interval a counter bit-identical to Extractor.CounterSparse (the
// equivalence the streaming tests and FuzzReplayMatchesExtract pin).
// Incomplete intervals, which no miner scores, carry an empty counter.
// Replay runs the same streamer over a materialized trace; it is the one
// production anatomizer for counters.
package lifecycle

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// Counters. The streamer keeps one running total per PC and the marker that
// last added to it. An open interval's boundary is its window start. The
// first addition to a PC after the latest boundary appends an entry to a
// log all intervals share: the PC, its total before the addition — still
// its total at every boundary since its previous addition — and that
// previous addition's marker. An interval finalized at the current marker
// has as its counter over (start, end] the entries logged since its start
// whose PC was last added at or before the start, each subtracted from the
// PC's current total. Each addition logs at most one entry however many
// intervals are open, and compaction drops entries no live boundary needs,
// leaving at most one per PC per live boundary: the state is bounded by
// both the deltas since the oldest open interval began and ProgramLen
// times the open intervals.
// The totals are uint64 integer sums, so each difference is the exact
// window sum; Extractor.CounterSparse adds the same deltas in float64,
// exact below 2^53, so the counters are bit-identical.

// logEntry is a PC's first addition after a boundary. A boundary is 1 + the
// index of its marker; the entry covers the boundaries in [prev, at), where
// the PC's total was base.
type logEntry struct {
	pc   int32
	prev int    // 1 + the marker of the PC's previous addition; 0 = none
	at   int    // 1 + the marker of this addition
	base uint64 // the PC's total before this addition
}

// minCompact is the log length below which compaction is not worth a pass
// (a variable so tests can compact small logs).
var minCompact = 4096

// buffers is a streamer's recyclable storage; between uses last is all-zero
// over its capacity and st is empty. Only differences of total are read.
type buffers struct {
	total []uint64 // running per-PC count
	last  []int    // 1 + the index of the marker that last added to the PC; 0 = never
	log   []logEntry
	st    []ivState
	bnd   []bound   // compaction scratch
	pcs   []pcCount // counter scratch
}

// bound is a live boundary and the log position to rebase on compaction.
type bound struct {
	at  int
	pos *int
}

type pcCount struct {
	pc int32
	n  uint64
}

// bufPool recycles streamer buffers: campaigns and core.Mine create a
// streamer per node per run.
var bufPool = sync.Pool{New: func() any { return new(buffers) }}

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

	// from is the window-start boundary, 1 + the opening marker, and
	// fromPos the log length then (counted intervals only).
	from, fromPos int

	// Tentative end: where the interval would end if the run truncated
	// now — the materialized algorithm's reti end (no owned task ran) or
	// taskEnd end (posts still pending) with Complete=false. A later
	// owned runTask discards it; Finalize reports it if it still stands.
	snapOK             bool
	snapItem, snapMark int
	snapCycle          uint64
	snapTask           bool
}

// Streamer is the online anatomizer for one node. Feed it markers via
// OnMark (typically by installing it as the node recorder's
// trace.StreamSink), then call Finalize once the run ends.
type Streamer struct {
	*buffers // nil once Finalize returned them to bufPool

	nodeID int
	dim    int // program length, -1 until learned from the first marker

	items     int // paper-visible items consumed
	markers   int // markers consumed
	lastCycle uint64

	// handlers is the pushdown automaton's stack of open int-reti
	// strings, bottom = earliest; values are interval slots.
	handlers []int
	// openSlots lists the counted slots still open, in opening order.
	openSlots []int
	// latest is the most recent window start, 0 when no interval is open;
	// compactAt is the log length that triggers compaction.
	latest, compactAt int

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

	err error
}

// static assertion: a Streamer plugs straight into a recorder.
var _ trace.StreamSink = (*Streamer)(nil)

// NewStreamer creates an online anatomizer for the node's marker stream.
// Its buffers come from a pool and go back in Finalize.
func NewStreamer(nodeID int) *Streamer {
	return &Streamer{
		buffers:   bufPool.Get().(*buffers),
		nodeID:    nodeID,
		dim:       -1,
		postOwner: make(map[int]int),
		curTask:   -1,
		watchEnd:  -1,
		seq:       make(map[int]int),
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
// It does nothing after Finalize.
func (s *Streamer) OnMark(kind trace.Kind, arg int, cycle uint64, instance int, touched []uint16, counts []uint32) {
	if s.err != nil || s.buffers == nil {
		return
	}
	if s.dim < 0 {
		s.grow(len(counts))
	}
	for _, pc := range touched {
		s.add(pc, counts[pc])
	}
	s.step(kind, arg, cycle, instance)
}

func (s *Streamer) grow(dim int) {
	s.dim = dim
	s.compactAt = minCompact
	s.total = slices.Grow(s.total[:0], dim)[:dim]
	s.last = slices.Grow(s.last[:0], dim)[:dim]
}

// add counts c executions of pc in the current marker. A window is
// (StartMarker, EndMarker] and add runs before step, so an interval closed
// at this marker includes it and one opened at it does not.
func (s *Streamer) add(pc uint16, c uint32) {
	if c == 0 {
		return
	}
	if prev := s.last[pc]; s.latest > 0 && prev <= s.latest {
		s.log = append(s.log, logEntry{pc: int32(pc), prev: prev, at: s.markers + 1, base: s.total[pc]})
		if len(s.log) >= s.compactAt {
			s.compact()
		}
	}
	s.total[pc] += uint64(c)
	s.last[pc] = s.markers + 1
}

// step advances the automaton by one marker, after add saw its deltas.
func (s *Streamer) step(kind trace.Kind, arg int, cycle uint64, instance int) {
	m := s.markers
	s.markers++
	s.lastCycle = cycle

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
			st.from, st.fromPos = m+1, len(s.log)
			s.latest = m + 1
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
		if s.runOrd == s.postOrd {
			s.err = fmt.Errorf("%w: runTask at item %d with no post pending", ErrMalformed, i)
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
			st.snapOK = false
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

// compact drops the log entries that cover no open interval's window
// start and rebases the starts' log positions.
func (s *Streamer) compact() {
	b := s.bnd[:0]
	for _, slot := range s.openSlots {
		st := &s.st[slot]
		b = append(b, bound{at: st.from, pos: &st.fromPos})
	}
	// Starts were logged in marker order, so positions rise with at.
	slices.SortFunc(b, func(x, y bound) int { return cmp.Compare(x.at, y.at) })
	n, j := 0, 0
	for i, e := range s.log {
		for ; j < len(b) && *b[j].pos <= i; j++ {
			*b[j].pos = n
		}
		k, _ := slices.BinarySearchFunc(b, e.prev, func(x bound, t int) int { return cmp.Compare(x.at, t) })
		if k < len(b) && b[k].at < e.at {
			s.log[n] = e
			n++
		}
	}
	for ; j < len(b); j++ {
		*b[j].pos = n
	}
	s.log = s.log[:n]
	clear(b)
	s.bnd = b[:0]
	s.compactAt = max(2*n, minCompact)
}

// counter reads the counter of an interval ending at the current marker
// off the log, against the current totals. The result is sorted by PC —
// the exact output of Extractor.CounterSparse.
func (s *Streamer) counter(st *ivState) stats.Sparse {
	pcs := s.pcs[:0]
	for _, e := range s.log[st.fromPos:] {
		if e.prev <= st.from {
			pcs = append(pcs, pcCount{pc: e.pc, n: s.total[e.pc] - e.base})
		}
	}
	slices.SortFunc(pcs, func(a, b pcCount) int { return cmp.Compare(a.pc, b.pc) })
	out := stats.Sparse{
		Idx: make([]int32, len(pcs)),
		Val: make([]float64, len(pcs)),
		Dim: s.dim,
	}
	for i, p := range pcs {
		out.Idx[i] = p.pc
		out.Val[i] = float64(p.n)
	}
	s.pcs = pcs[:0]
	return out
}

// snapshot records the tentative end; Finalize reports it if it still
// stands then.
func (s *Streamer) snapshot(slot, endItem, endMarker int, cycle uint64, endsWithTask bool) {
	st := &s.st[slot]
	st.snapOK = true
	st.snapItem = endItem
	st.snapMark = endMarker
	st.snapCycle = cycle
	st.snapTask = endsWithTask
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
		s.cnt[st.out] = s.counter(st)
		s.openSlots = slices.DeleteFunc(s.openSlots, func(o int) bool { return o == slot })
		if len(s.openSlots) == 0 {
			s.log = s.log[:0]
			s.latest = 0
		}
	}
	st.snapOK = false
	st.open = false
}

// Finalize closes the stream: intervals still in flight are marked
// incomplete exactly the way the materialized algorithm marks them when
// the trace ends mid-instance. It returns every interval in chronological
// order of its opening int(n) item, the matching sparse counters — empty
// for incomplete intervals, which every miner excludes — and the first
// malformed-sequence error if one occurred.
//
// Call it after the run's last marker; later calls return the same result.
func (s *Streamer) Finalize() ([]Interval, []stats.Sparse, error) {
	if s.err != nil {
		s.release()
		return nil, nil, s.err
	}
	if s.buffers == nil {
		return s.ivs, s.cnt, nil
	}
	for slot := range s.st {
		st := &s.st[slot]
		if !st.open {
			continue
		}
		st.open = false
		if st.out < 0 {
			continue
		}
		iv := &s.ivs[st.out]
		iv.Complete = false
		switch {
		case st.handlerOpen:
			// Handler still running at trace end.
			iv.EndItem = s.items - 1
		case st.snapOK:
			// The tentative end stands: pending posts never ran past
			// it.
			iv.EndItem = st.snapItem
			iv.EndMarker = st.snapMark
			iv.EndCycle = st.snapCycle
			iv.EndsWithTask = st.snapTask
			continue
		default:
			// An owned task ran but its TaskEnd never arrived (run
			// ended mid-task): the window extends to the trace end.
			iv.EndItem = st.lastRunItem
			iv.EndsWithTask = true
		}
		iv.EndMarker = s.markers - 1
		iv.EndCycle = s.lastCycle
	}
	s.release()
	return s.ivs, s.cnt, nil
}

func (s *Streamer) release() {
	b := s.buffers
	if b == nil {
		return
	}
	s.buffers = nil
	clear(b.last)
	b.log = b.log[:0]
	b.st = b.st[:0]
	bufPool.Put(b)
}

// Replay feeds a recorded node trace to a fresh streamer, in place of
// OnMark, and finalizes it: how core.Mine anatomizes recorded runs.
func (s *Streamer) Replay(nt *trace.NodeTrace) ([]Interval, []stats.Sparse, error) {
	if s.buffers == nil {
		return s.Finalize()
	}
	s.grow(nt.ProgramLen)
	for i, m := range nt.Markers {
		for _, d := range m.Deltas {
			if int(d.PC) >= s.dim {
				s.err = fmt.Errorf("lifecycle: marker %d: pc %d outside program of %d", i, d.PC, s.dim)
				return s.Finalize()
			}
			s.add(d.PC, d.Count)
		}
		inst := -1
		if nt.TruthInstance != nil {
			inst = nt.TruthInstance[i]
		}
		s.step(m.Kind, m.Arg, m.Cycle, inst)
		if s.err != nil {
			break
		}
	}
	return s.Finalize()
}

// Replay anatomizes one node trace through a fresh streamer.
func Replay(nt *trace.NodeTrace) ([]Interval, []stats.Sparse, error) {
	return NewStreamer(nt.NodeID).Replay(nt)
}
