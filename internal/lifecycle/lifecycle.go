// Package lifecycle implements the paper's Section V-A: parsing a node's
// lifecycle sequence into event-handling intervals.
//
// The analyzer is strictly black-box: it sees only the four paper-visible
// item kinds (postTask, runTask, int(n), reti) and applies
//
//	Criterion 1: the task posted via the i-th postTask is executed via the
//	             i-th runTask (FIFO queue),
//	Criterion 2: within an int-reti string, all items outside nested
//	             int-reti substrings are postTask items of that handler,
//	Criterion 3: postTask items between two consecutive runTask items that
//	             are outside int-reti strings belong to the first runTask's
//	             task,
//
// and the breadth-first algorithm of the paper's Figure 4 to find, for each
// int(n) item, the index of the last item of its event-procedure instance.
// The int-reti strings themselves form the context-free grammar of
// Definition 3, recognized here by a pushdown automaton (package-internal
// but also exposed for property tests via Grammar).
package lifecycle

import (
	"errors"
	"fmt"

	"sentomist/internal/trace"
)

// Analysis errors.
var (
	// ErrMalformed indicates a lifecycle sequence that violates the
	// TinyOS concurrency model (e.g. a runTask inside a handler window).
	ErrMalformed = errors.New("lifecycle: malformed sequence")
)

// Item is one paper-visible lifecycle item.
type Item struct {
	Kind trace.Kind // PostTask, RunTask, Int, or Reti
	Arg  int        // IRQ for Int, task ID for PostTask/RunTask
	// Marker is the index of the item in the node's full marker list
	// (which additionally contains TaskEnd instrumentation markers).
	Marker int
}

// Interval is one event-handling interval (Definition 2): the lifetime of
// one event-procedure instance.
type Interval struct {
	// IRQ identifies the event type (the interrupt that started the
	// instance).
	IRQ int
	// Seq is the 1-based chronological index of this interval among
	// intervals of the same IRQ on the same node (the paper's "s" in
	// sample index [r, s] / [n, s]).
	Seq int
	// Node is the originating node ID.
	Node int

	// StartItem and EndItem are item indices into the analyzed
	// sequence: the int(n) item and the last item of the instance (the
	// runTask of its final task, or the matching reti when the handler
	// posted no tasks).
	StartItem, EndItem int

	// StartMarker and EndMarker delimit the wall-clock window in the
	// node's full marker list: the instruction counter of the interval
	// is the sum of marker deltas in (StartMarker, EndMarker].
	StartMarker, EndMarker int

	// StartCycle and EndCycle are the window bounds in cycles.
	StartCycle, EndCycle uint64

	// EndsWithTask records whether the instance posted tasks.
	EndsWithTask bool

	// Complete is false when the run ended before the instance did
	// (its final task never ran, or the handler never returned). Such
	// intervals are excluded from mining but reported for visibility.
	Complete bool

	// Truth is the runtime's ground-truth instance ID when the trace
	// recorded one, else -1. Used only by tests.
	Truth int
}

// Duration returns the interval length in cycles.
func (iv Interval) Duration() uint64 { return iv.EndCycle - iv.StartCycle }

// Sequence is a node's lifecycle sequence prepared for analysis.
type Sequence struct {
	nodeID  int
	items   []Item
	markers []trace.Marker
	truth   []int

	// FIFO matching (Criterion 1): ordinal k's postTask and runTask.
	postByOrdinal []int // item index of the k-th postTask
	runByOrdinal  []int // item index of the k-th runTask
	postOrdinal   map[int]int
}

// NewSequence builds the analyzable sequence from a recorded node trace,
// keeping only the four paper-visible item kinds.
func NewSequence(nt *trace.NodeTrace) *Sequence {
	s := &Sequence{
		nodeID:      nt.NodeID,
		markers:     nt.Markers,
		truth:       nt.TruthInstance,
		postOrdinal: make(map[int]int),
	}
	for mi, m := range nt.Markers {
		switch m.Kind {
		case trace.PostTask, trace.RunTask, trace.Int, trace.Reti:
			idx := len(s.items)
			s.items = append(s.items, Item{Kind: m.Kind, Arg: m.Arg, Marker: mi})
			switch m.Kind {
			case trace.PostTask:
				s.postOrdinal[idx] = len(s.postByOrdinal)
				s.postByOrdinal = append(s.postByOrdinal, idx)
			case trace.RunTask:
				s.runByOrdinal = append(s.runByOrdinal, idx)
			}
		}
	}
	return s
}

// Items returns the paper-visible items of the sequence.
func (s *Sequence) Items() []Item { return s.items }

// intRetiEnd recognizes the int-reti string starting at item index start
// (which must be an Int item): it returns the index of the matching reti
// and the item indices of the postTasks called by this handler itself
// (Criterion 2). ok is false when the string is truncated by the run end.
func (s *Sequence) intRetiEnd(start int) (end int, posts []int, ok bool, err error) {
	if s.items[start].Kind != trace.Int {
		return 0, nil, false, fmt.Errorf("%w: int-reti string must start with int(n)", ErrMalformed)
	}
	depth := 1
	for i := start + 1; i < len(s.items); i++ {
		switch s.items[i].Kind {
		case trace.Int:
			depth++
		case trace.Reti:
			depth--
			if depth == 0 {
				return i, posts, true, nil
			}
		case trace.PostTask:
			if depth == 1 {
				posts = append(posts, i)
			}
		case trace.RunTask:
			return 0, nil, false, fmt.Errorf(
				"%w: runTask at item %d inside the handler window opened at item %d",
				ErrMalformed, i, start)
		}
	}
	return 0, posts, false, nil
}

// matchRun applies Criterion 1: the runTask item executing the task posted
// at postItem. ok is false when the run lies beyond the trace end.
func (s *Sequence) matchRun(postItem int) (int, bool) {
	ord, isPost := s.postOrdinal[postItem]
	if !isPost {
		return 0, false
	}
	if ord >= len(s.runByOrdinal) {
		return 0, false
	}
	return s.runByOrdinal[ord], true
}

// postsOfTask applies Criterion 3: the postTask items issued by the task
// started at runItem — those between runItem and the next runTask item that
// are not inside int-reti strings. ok is false when the task was still
// running at trace end (its extent cannot be bounded).
func (s *Sequence) postsOfTask(runItem int) (posts []int, ok bool) {
	depth := 0
	for i := runItem + 1; i < len(s.items); i++ {
		switch s.items[i].Kind {
		case trace.Int:
			depth++
		case trace.Reti:
			if depth > 0 {
				depth--
			}
		case trace.PostTask:
			if depth == 0 {
				posts = append(posts, i)
			}
		case trace.RunTask:
			if depth == 0 {
				return posts, true
			}
		}
	}
	// Trace ended. The task's extent is bounded only if its taskEnd
	// marker exists; the caller checks that via the marker list. Treat
	// the posts collected so far as complete enough for analysis.
	return posts, true
}

// instanceAt runs the Figure-4 algorithm for the instance whose handler
// entered at item index start. It returns the interval, which may be marked
// incomplete when the run ended mid-instance.
func (s *Sequence) instanceAt(start int) (Interval, error) {
	iv := Interval{
		IRQ:       s.items[start].Arg,
		Node:      s.nodeID,
		StartItem: start,
		Truth:     s.truthAt(start),
	}
	iv.StartMarker = s.items[start].Marker
	iv.StartCycle = s.markers[iv.StartMarker].Cycle

	retiItem, posts, handlerDone, err := s.intRetiEnd(start)
	if err != nil {
		return Interval{}, err
	}
	if !handlerDone {
		// Handler still running at trace end.
		iv.EndItem = len(s.items) - 1
		iv.EndMarker = len(s.markers) - 1
		iv.EndCycle = s.markers[iv.EndMarker].Cycle
		iv.Complete = false
		return iv, nil
	}

	// Breadth-first expansion over posted tasks (the loop of Figure 4).
	lastRun := -1
	frontier := posts
	complete := true
	for len(frontier) > 0 {
		var next []int
		for _, p := range frontier {
			r, ok := s.matchRun(p)
			if !ok {
				complete = false
				continue
			}
			if r > lastRun {
				lastRun = r
			}
			q, ok := s.postsOfTask(r)
			if !ok {
				complete = false
			}
			next = append(next, q...)
		}
		frontier = next
	}

	if lastRun < 0 {
		// No tasks (or none that ran): the interval is the handler
		// window itself.
		iv.EndItem = retiItem
		iv.EndMarker = s.items[retiItem].Marker
		iv.EndCycle = s.markers[iv.EndMarker].Cycle
		iv.EndsWithTask = false
		iv.Complete = complete && len(posts) == 0
		return iv, nil
	}

	iv.EndItem = lastRun
	iv.EndsWithTask = true
	endMarker, ok := s.taskEndMarkerAfter(s.items[lastRun].Marker)
	if !ok {
		iv.EndMarker = len(s.markers) - 1
		iv.EndCycle = s.markers[iv.EndMarker].Cycle
		iv.Complete = false
		return iv, nil
	}
	iv.EndMarker = endMarker
	iv.EndCycle = s.markers[endMarker].Cycle
	iv.Complete = complete
	return iv, nil
}

// taskEndMarkerAfter finds the TaskEnd marker closing the task whose
// runTask marker is at index m. Tasks do not nest, so it is the first
// TaskEnd marker after m.
func (s *Sequence) taskEndMarkerAfter(m int) (int, bool) {
	for i := m + 1; i < len(s.markers); i++ {
		if s.markers[i].Kind == trace.TaskEnd {
			return i, true
		}
	}
	return 0, false
}

func (s *Sequence) truthAt(item int) int {
	if s.truth == nil {
		return -1
	}
	return s.truth[s.items[item].Marker]
}

// Extract identifies every event-handling interval in the sequence, in
// chronological order of their starting int(n) items, and numbers them
// per IRQ.
func (s *Sequence) Extract() ([]Interval, error) {
	var out []Interval
	seq := make(map[int]int)
	for i, it := range s.items {
		if it.Kind != trace.Int {
			continue
		}
		iv, err := s.instanceAt(i)
		if err != nil {
			return nil, err
		}
		seq[iv.IRQ]++
		iv.Seq = seq[iv.IRQ]
		out = append(out, iv)
	}
	return out, nil
}

// ExtractTrace runs interval identification over every node of a trace.
func ExtractTrace(t *trace.Trace) ([]Interval, error) {
	var out []Interval
	for _, nt := range t.Nodes {
		ivs, err := NewSequence(nt).Extract()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", nt.NodeID, err)
		}
		out = append(out, ivs...)
	}
	return out, nil
}

// GroupByIRQ partitions intervals by event type, preserving order.
func GroupByIRQ(ivs []Interval) map[int][]Interval {
	m := make(map[int][]Interval)
	for _, iv := range ivs {
		m[iv.IRQ] = append(m[iv.IRQ], iv)
	}
	return m
}
