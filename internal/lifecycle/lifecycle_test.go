package lifecycle

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"sentomist/internal/randx"
	"sentomist/internal/trace"
)

// figure1Trace hand-builds the paper's Figure 1: an interrupt handler posts
// tasks A and B; A posts C; B is preempted by another interrupt; C runs
// last. Task IDs: A=0, B=1, C=2.
func figure1Trace() *trace.NodeTrace {
	ms := []trace.Marker{
		{Kind: trace.Int, Arg: 1, Cycle: 100},      // 0  t0
		{Kind: trace.PostTask, Arg: 0, Cycle: 110}, // 1  t1
		{Kind: trace.PostTask, Arg: 1, Cycle: 120}, // 2  t2
		{Kind: trace.Reti, Cycle: 130},             // 3  t3
		{Kind: trace.RunTask, Arg: 0, Cycle: 200},  // 4  t4
		{Kind: trace.PostTask, Arg: 2, Cycle: 210}, // 5  t5
		{Kind: trace.TaskEnd, Arg: 0, Cycle: 220},  // 6  t6
		{Kind: trace.RunTask, Arg: 1, Cycle: 230},  // 7
		{Kind: trace.Int, Arg: 2, Cycle: 240},      // 8  t7
		{Kind: trace.Reti, Cycle: 250},             // 9  t8
		{Kind: trace.TaskEnd, Arg: 1, Cycle: 300},  // 10 t9
		{Kind: trace.RunTask, Arg: 2, Cycle: 310},  // 11 t10
		{Kind: trace.TaskEnd, Arg: 2, Cycle: 400},  // 12 t11
	}
	return &trace.NodeTrace{NodeID: 1, ProgramLen: 16, Markers: ms}
}

func TestFigure1IntervalIdentification(t *testing.T) {
	seq := NewSequence(figure1Trace())
	ivs, err := seq.Extract()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("found %d intervals, want 2", len(ivs))
	}
	outer := ivs[0]
	if outer.IRQ != 1 || !outer.Complete || !outer.EndsWithTask {
		t.Fatalf("outer interval %+v", outer)
	}
	// The event-handling interval spans t0..t11 (Definition 2).
	if outer.StartCycle != 100 || outer.EndCycle != 400 {
		t.Fatalf("outer window [%d,%d], want [100,400]", outer.StartCycle, outer.EndCycle)
	}
	if outer.StartMarker != 0 || outer.EndMarker != 12 {
		t.Fatalf("outer markers [%d,%d], want [0,12]", outer.StartMarker, outer.EndMarker)
	}
	inner := ivs[1]
	if inner.IRQ != 2 || !inner.Complete || inner.EndsWithTask {
		t.Fatalf("inner interval %+v", inner)
	}
	if inner.StartCycle != 240 || inner.EndCycle != 250 {
		t.Fatalf("inner window [%d,%d], want [240,250]", inner.StartCycle, inner.EndCycle)
	}
	if inner.Seq != 1 || outer.Seq != 1 {
		t.Fatalf("per-IRQ sequence numbers: outer %d inner %d", outer.Seq, inner.Seq)
	}
}

func TestHandlerOnlyInterval(t *testing.T) {
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 4, Markers: []trace.Marker{
		{Kind: trace.Int, Arg: 3, Cycle: 10},
		{Kind: trace.Reti, Cycle: 20},
	}}
	ivs, err := NewSequence(nt).Extract()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 {
		t.Fatalf("%d intervals", len(ivs))
	}
	iv := ivs[0]
	if !iv.Complete || iv.EndsWithTask || iv.StartCycle != 10 || iv.EndCycle != 20 {
		t.Fatalf("interval %+v", iv)
	}
	if iv.Duration() != 10 {
		t.Fatalf("duration %d", iv.Duration())
	}
}

func TestTruncatedHandlerIncomplete(t *testing.T) {
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 4, Markers: []trace.Marker{
		{Kind: trace.Int, Arg: 3, Cycle: 10},
		{Kind: trace.PostTask, Arg: 0, Cycle: 15},
	}}
	ivs, err := NewSequence(nt).Extract()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 || ivs[0].Complete {
		t.Fatalf("truncated handler: %+v", ivs)
	}
}

func TestTruncatedTaskIncomplete(t *testing.T) {
	// Handler posted a task but the trace ends before it runs.
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 4, Markers: []trace.Marker{
		{Kind: trace.Int, Arg: 3, Cycle: 10},
		{Kind: trace.PostTask, Arg: 0, Cycle: 15},
		{Kind: trace.Reti, Cycle: 20},
	}}
	ivs, err := NewSequence(nt).Extract()
	if err != nil {
		t.Fatal(err)
	}
	if ivs[0].Complete {
		t.Fatal("interval with an unrun task marked complete")
	}
}

func TestTaskWithoutTaskEndIncomplete(t *testing.T) {
	// runTask happened but the trace ends before the task returns.
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 4, Markers: []trace.Marker{
		{Kind: trace.Int, Arg: 3, Cycle: 10},
		{Kind: trace.PostTask, Arg: 0, Cycle: 15},
		{Kind: trace.Reti, Cycle: 20},
		{Kind: trace.RunTask, Arg: 0, Cycle: 30},
	}}
	ivs, err := NewSequence(nt).Extract()
	if err != nil {
		t.Fatal(err)
	}
	if ivs[0].Complete {
		t.Fatal("interval with an unfinished task marked complete")
	}
}

func TestMalformedRunTaskInsideHandler(t *testing.T) {
	// Rule 2 forbids a task starting while a handler runs; the analyzer
	// must reject such a sequence.
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 4, Markers: []trace.Marker{
		{Kind: trace.Int, Arg: 3, Cycle: 10},
		{Kind: trace.RunTask, Arg: 0, Cycle: 15},
		{Kind: trace.Reti, Cycle: 20},
	}}
	_, err := NewSequence(nt).Extract()
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// TestMalformedRunTaskWithoutPost pins the termination of Extract on a
// runTask with no post pending, which the runtime cannot emit: FIFO
// matching pairs it with a later post, and this sequence once sent the
// Figure-4 expansion round the same post forever. Both anatomizers must
// reject it without trace.Validate's help.
func TestMalformedRunTaskWithoutPost(t *testing.T) {
	kinds := []trace.Kind{trace.RunTask, trace.Int, trace.PostTask, trace.Reti,
		trace.Int, trace.RunTask, trace.Reti, trace.PostTask}
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: len(kinds)}
	for i, k := range kinds {
		nt.Markers = append(nt.Markers, trace.Marker{Kind: k, Cycle: uint64(10 * (i + 1)),
			Deltas: []trace.Delta{{PC: uint16(i), Count: 1}}})
	}
	done := make(chan error, 1)
	go func() {
		_, err := NewSequence(nt).Extract()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("Extract: err = %v, want ErrMalformed", err)
		}
		if _, _, serr := Replay(nt); serr == nil || serr.Error() != err.Error() {
			t.Fatalf("Replay: err = %v, want %v", serr, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Extract did not return within 5 s")
	}
}

func TestOverlappingInstancesShareWindow(t *testing.T) {
	// The paper's key property: instance 1 posts a task that runs after
	// instance 2's handler, so instance 1's window CONTAINS instance 2.
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 8, Markers: []trace.Marker{
		{Kind: trace.Int, Arg: 3, Cycle: 10}, // instance 1
		{Kind: trace.PostTask, Arg: 0, Cycle: 12},
		{Kind: trace.Reti, Cycle: 14},
		{Kind: trace.Int, Arg: 3, Cycle: 20}, // instance 2 (preempts the gap)
		{Kind: trace.Reti, Cycle: 24},
		{Kind: trace.RunTask, Arg: 0, Cycle: 30},
		{Kind: trace.TaskEnd, Arg: 0, Cycle: 40},
	}}
	ivs, err := NewSequence(nt).Extract()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("%d intervals", len(ivs))
	}
	first, second := ivs[0], ivs[1]
	if first.StartCycle != 10 || first.EndCycle != 40 {
		t.Fatalf("first window [%d,%d]", first.StartCycle, first.EndCycle)
	}
	if second.StartCycle != 20 || second.EndCycle != 24 {
		t.Fatalf("second window [%d,%d]", second.StartCycle, second.EndCycle)
	}
	if !(first.StartCycle <= second.StartCycle && second.EndCycle <= first.EndCycle) {
		t.Fatal("instance 2 not contained in instance 1's window")
	}
	if first.Seq != 1 || second.Seq != 2 {
		t.Fatalf("sequence numbers %d, %d", first.Seq, second.Seq)
	}
}

func TestFIFOMatchingAcrossInstances(t *testing.T) {
	// Two instances each post the same task ID; Criterion 1 must match
	// the i-th post to the i-th run regardless of IDs.
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: 8, Markers: []trace.Marker{
		{Kind: trace.Int, Arg: 1, Cycle: 10},
		{Kind: trace.PostTask, Arg: 0, Cycle: 11},
		{Kind: trace.Reti, Cycle: 12},
		{Kind: trace.Int, Arg: 2, Cycle: 13},
		{Kind: trace.PostTask, Arg: 0, Cycle: 14},
		{Kind: trace.Reti, Cycle: 15},
		{Kind: trace.RunTask, Arg: 0, Cycle: 20}, // belongs to instance 1
		{Kind: trace.TaskEnd, Arg: 0, Cycle: 25},
		{Kind: trace.RunTask, Arg: 0, Cycle: 30}, // belongs to instance 2
		{Kind: trace.TaskEnd, Arg: 0, Cycle: 35},
	}}
	ivs, err := NewSequence(nt).Extract()
	if err != nil {
		t.Fatal(err)
	}
	if ivs[0].EndCycle != 25 {
		t.Fatalf("instance 1 ends at %d, want 25", ivs[0].EndCycle)
	}
	if ivs[1].EndCycle != 35 {
		t.Fatalf("instance 2 ends at %d, want 35", ivs[1].EndCycle)
	}
}

func TestGroupByIRQ(t *testing.T) {
	ivs := []Interval{
		{IRQ: 1, Complete: true},
		{IRQ: 2, Complete: false},
		{IRQ: 1, Complete: true},
	}
	groups := GroupByIRQ(ivs)
	if len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Fatalf("groups %v", groups)
	}
}

// --- Grammar tests -------------------------------------------------------

func itemsFromKinds(ks []trace.Kind) []Item {
	items := make([]Item, len(ks))
	for i, k := range ks {
		items[i] = Item{Kind: k}
	}
	return items
}

func TestGrammarAcceptsPaperExamples(t *testing.T) {
	accept := [][]trace.Kind{
		{trace.Int, trace.Reti},
		{trace.Int, trace.PostTask, trace.Reti},
		{trace.Int, trace.PostTask, trace.PostTask, trace.Reti},
		{trace.Int, trace.Int, trace.Reti, trace.Reti},
		{trace.Int, trace.PostTask, trace.Int, trace.PostTask, trace.Reti, trace.PostTask, trace.Reti},
	}
	reject := [][]trace.Kind{
		{},
		{trace.Int},
		{trace.Reti},
		{trace.Int, trace.RunTask, trace.Reti},
		{trace.PostTask, trace.Int, trace.Reti},
		{trace.Int, trace.Reti, trace.Int, trace.Reti}, // two strings, not one
		{trace.Int, trace.Reti, trace.PostTask},
		{trace.Int, trace.Int, trace.Reti},
	}
	for _, ks := range accept {
		items := itemsFromKinds(ks)
		if !RecognizePDA(items) || !RecognizeCFG(items) {
			t.Errorf("rejected valid string %v (pda=%v cfg=%v)", ks, RecognizePDA(items), RecognizeCFG(items))
		}
	}
	for _, ks := range reject {
		items := itemsFromKinds(ks)
		if RecognizePDA(items) || RecognizeCFG(items) {
			t.Errorf("accepted invalid string %v (pda=%v cfg=%v)", ks, RecognizePDA(items), RecognizeCFG(items))
		}
	}
}

// TestGrammarPDAEquivalentToCFG: the pushdown automaton and the direct
// grammar recognizer agree on arbitrary item strings.
func TestGrammarPDAEquivalentToCFG(t *testing.T) {
	check := func(raw []byte) bool {
		if len(raw) > 14 {
			raw = raw[:14]
		}
		items := make([]Item, len(raw))
		for i, b := range raw {
			items[i] = Item{Kind: trace.Kind(b%4) + trace.PostTask}
		}
		return RecognizePDA(items) == RecognizeCFG(items)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestGrammarAcceptsGeneratedStrings: strings produced by the grammar's
// own production rules are accepted by both recognizers.
func TestGrammarAcceptsGeneratedStrings(t *testing.T) {
	rng := randx.New(123)
	var gen func(depth int) []Item
	gen = func(depth int) []Item {
		// S -> int R reti ; R -> (P S?)* ; P -> postTask*
		items := []Item{{Kind: trace.Int}}
		for i := rng.Intn(3); i > 0; i-- {
			for j := rng.Intn(3); j > 0; j-- {
				items = append(items, Item{Kind: trace.PostTask})
			}
			if depth < 3 && rng.Bool(0.5) {
				items = append(items, gen(depth+1)...)
			}
		}
		return append(items, Item{Kind: trace.Reti})
	}
	for i := 0; i < 500; i++ {
		s := gen(0)
		if !RecognizePDA(s) {
			t.Fatalf("PDA rejected generated string %v", s)
		}
		if !RecognizeCFG(s) {
			t.Fatalf("CFG rejected generated string %v", s)
		}
	}
}

// TestNoProperPrefixAccepted: the paper's observation that no proper prefix
// of an int-reti string is itself an int-reti string (nesting).
func TestNoProperPrefixAccepted(t *testing.T) {
	rng := randx.New(77)
	var gen func(depth int) []Item
	gen = func(depth int) []Item {
		items := []Item{{Kind: trace.Int}}
		for i := rng.Intn(3); i > 0; i-- {
			for j := rng.Intn(2); j > 0; j-- {
				items = append(items, Item{Kind: trace.PostTask})
			}
			if depth < 3 && rng.Bool(0.5) {
				items = append(items, gen(depth+1)...)
			}
		}
		return append(items, Item{Kind: trace.Reti})
	}
	for i := 0; i < 200; i++ {
		s := gen(0)
		for cut := 1; cut < len(s); cut++ {
			if RecognizePDA(s[:cut]) {
				t.Fatalf("proper prefix of length %d accepted: %v", cut, s)
			}
		}
	}
}
