package lifecycle_test

import (
	"errors"
	"reflect"
	"testing"

	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// mk builds a marker with a distinctive single-PC delta so every window
// boundary decision shows up in the counters: marker i executes PC i
// (i+1) times.
func mk(i int, kind trace.Kind, arg int) trace.Marker {
	return trace.Marker{
		Kind:   kind,
		Arg:    arg,
		Cycle:  uint64(10 * (i + 1)),
		Deltas: []trace.Delta{{PC: uint16(i), Count: uint32(i + 1)}},
	}
}

func handBuilt(kinds []trace.Kind, args []int) *trace.NodeTrace {
	nt := &trace.NodeTrace{NodeID: 1, ProgramLen: len(kinds) + 1}
	for i, k := range kinds {
		nt.Markers = append(nt.Markers, mk(i, k, args[i]))
	}
	return nt
}

// referenceCounter is the counter the streamer must report for iv: the
// two-pass reference's for a complete interval, and an empty one for an
// incomplete interval, which no miner scores.
func referenceCounter(ext *feature.Extractor, iv lifecycle.Interval) (stats.Sparse, error) {
	if !iv.Complete {
		return stats.Sparse{}, nil
	}
	return ext.CounterSparse(iv)
}

// checkStreamEquivalence asserts the online anatomizer produces the same
// intervals and bit-identical counters as the two-pass reference on nt,
// with the default log compaction and with compaction at every doubling.
func checkStreamEquivalence(t *testing.T, label string, nt *trace.NodeTrace) {
	t.Helper()
	checkStreamEquivalenceOnce(t, label, nt)
	restore := lifecycle.SetMinCompact(1)
	defer restore()
	checkStreamEquivalenceOnce(t, label+" (compacting)", nt)
}

func checkStreamEquivalenceOnce(t *testing.T, label string, nt *trace.NodeTrace) {
	t.Helper()
	wantIvs, wantErr := lifecycle.NewSequence(nt).Extract()
	gotIvs, gotCnt, gotErr := lifecycle.Replay(nt)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error mismatch:\n  materialized: %v\n  streaming:    %v", label, wantErr, gotErr)
		}
		if !errors.Is(gotErr, lifecycle.ErrMalformed) {
			t.Fatalf("%s: streaming error does not wrap ErrMalformed: %v", label, gotErr)
		}
		return
	}
	if len(gotIvs) != len(wantIvs) {
		t.Fatalf("%s: %d streamed intervals, want %d\n got: %+v\nwant: %+v",
			label, len(gotIvs), len(wantIvs), gotIvs, wantIvs)
	}
	ext := feature.NewExtractor(&trace.Trace{Nodes: []*trace.NodeTrace{nt}})
	for i := range wantIvs {
		if !reflect.DeepEqual(gotIvs[i], wantIvs[i]) {
			t.Errorf("%s: interval %d:\n got: %+v\nwant: %+v", label, i, gotIvs[i], wantIvs[i])
			continue
		}
		wantC, err := referenceCounter(ext, wantIvs[i])
		if err != nil {
			t.Fatalf("%s: interval %d: %v", label, i, err)
		}
		if !reflect.DeepEqual(gotCnt[i], wantC) {
			t.Errorf("%s: interval %d counter:\n got: %+v\nwant: %+v", label, i, gotCnt[i], wantC)
		}
	}
}

func TestStreamerMatchesExtractHandBuilt(t *testing.T) {
	P, R, I, T, E := trace.PostTask, trace.RunTask, trace.Int, trace.Reti, trace.TaskEnd
	cases := []struct {
		name  string
		kinds []trace.Kind
		args  []int
	}{
		{"no_tasks", []trace.Kind{I, T}, []int{3, 0}},
		{"one_task", []trace.Kind{I, P, T, R, E}, []int{3, 0, 0, 0, 0}},
		{"two_posts", []trace.Kind{I, P, P, T, R, E, R, E}, []int{3, 0, 1, 0, 0, 0, 1, 1}},
		{"task_chain", []trace.Kind{I, P, T, R, P, E, R, E}, []int{3, 0, 0, 0, 1, 0, 1, 1}},
		{"nested_handlers", []trace.Kind{I, I, T, P, T, R, E}, []int{3, 4, 0, 0, 0, 0, 0}},
		{"preempted_task", []trace.Kind{I, P, T, R, I, T, E}, []int{3, 0, 0, 0, 4, 0, 0}},
		{"interleaved", []trace.Kind{I, P, T, I, P, T, R, E, R, E}, []int{3, 0, 0, 4, 1, 0, 0, 0, 1, 1}},
		{"boot_post_unowned", []trace.Kind{P, R, E, I, T}, []int{9, 9, 9, 3, 0}},
		{"trunc_handler_open", []trace.Kind{I, P}, []int{3, 0}},
		{"trunc_posts_never_ran", []trace.Kind{I, P, T}, []int{3, 0, 0}},
		{"trunc_pending_after_task", []trace.Kind{I, P, P, T, R, E}, []int{3, 0, 1, 0, 0, 0}},
		{"trunc_taskend_missing", []trace.Kind{I, P, T, R}, []int{3, 0, 0, 0}},
		{"trunc_mid_task_preempt", []trace.Kind{I, P, T, R, I, T}, []int{3, 0, 0, 0, 4, 0}},
		{"trunc_nested_open", []trace.Kind{I, I}, []int{3, 4}},
		{"malformed_run_in_handler", []trace.Kind{I, R}, []int{3, 0}},
		{"malformed_nested", []trace.Kind{I, T, I, I, R}, []int{3, 0, 4, 5, 0}},
		{"malformed_run_without_post", []trace.Kind{R, I, P, T, I, R, T, P}, []int{0, 3, 0, 0, 3, 0, 0, 0}},
		{"malformed_run_after_posts_ran", []trace.Kind{I, P, T, R, E, R}, []int{3, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		checkStreamEquivalence(t, tc.name, handBuilt(tc.kinds, tc.args))
	}
}

// TestStreamerLiveMatchesReplay checks that feeding markers through a live
// recorder sink (discarding the materialized trace) produces exactly what
// Replay over the materialized trace of the same run produces.
func TestStreamerLiveMatchesReplay(t *testing.T) {
	nt := handBuilt(
		[]trace.Kind{trace.Int, trace.PostTask, trace.Reti, trace.RunTask, trace.PostTask, trace.TaskEnd, trace.RunTask, trace.TaskEnd},
		[]int{3, 0, 0, 0, 1, 0, 1, 1},
	)
	// "Live" = drive OnMark directly with recorder-style scratch reuse:
	// one dense array and touched list recycled across markers.
	live := lifecycle.NewStreamer(nt.NodeID)
	counts := make([]uint32, nt.ProgramLen)
	var touched []uint16
	for _, m := range nt.Markers {
		touched = touched[:0]
		for _, d := range m.Deltas {
			if counts[d.PC] == 0 {
				touched = append(touched, d.PC)
			}
			counts[d.PC] += d.Count
		}
		live.OnMark(m.Kind, m.Arg, m.Cycle, -1, touched, counts)
		for _, pc := range touched {
			counts[pc] = 0
		}
	}
	liveIvs, liveCnt, err := live.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	repIvs, repCnt, err := lifecycle.Replay(nt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveIvs, repIvs) || !reflect.DeepEqual(liveCnt, repCnt) {
		t.Fatalf("live sink and Replay diverge:\nlive: %+v %+v\nrep:  %+v %+v", liveIvs, liveCnt, repIvs, repCnt)
	}
}

// replayAllocs is what a steady-state Replay of the two-interval trace in
// TestReplayReusesBuffers allocates: the Streamer and its maps, the grown
// interval and counter slices, and each counter's index and value arrays.
// The per-PC totals, the interval states and the windows come back from
// the pool; with the pool disabled the same Replay measures 38 allocations.
const replayAllocs = 15

// TestReplayReusesBuffers pins buffer recycling: repeated Replays of one
// trace return identical results (no state leaks between streamers through
// the pool), and the second and later Replays allocate only their outputs
// and per-streamer bookkeeping.
func TestReplayReusesBuffers(t *testing.T) {
	P, R, I, T, E := trace.PostTask, trace.RunTask, trace.Int, trace.Reti, trace.TaskEnd
	nt := handBuilt(
		[]trace.Kind{I, P, T, I, P, T, R, E, R, E},
		[]int{3, 0, 0, 4, 1, 0, 0, 0, 1, 1},
	)
	first, firstCnt, err := lifecycle.Replay(nt)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round < 4; round++ {
		ivs, cnt, err := lifecycle.Replay(nt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ivs, first) || !reflect.DeepEqual(cnt, firstCnt) {
			t.Fatalf("round %d diverges after buffer reuse", round)
		}
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := lifecycle.Replay(nt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state Replay: %.0f allocs", allocs)
	if allocs > replayAllocs {
		t.Errorf("steady-state Replay allocates %.0f times, want at most %d: buffers are not reused", allocs, replayAllocs)
	}
}

// TestStreamerFinalizeTwice pins Finalize's result as final: a second
// Finalize returns it again, and markers after the first are ignored,
// though the first call returned the streamer's buffers to the pool.
func TestStreamerFinalizeTwice(t *testing.T) {
	P, R, I, T, E := trace.PostTask, trace.RunTask, trace.Int, trace.Reti, trace.TaskEnd
	nt := handBuilt([]trace.Kind{I, P, T, R, E, I}, []int{3, 0, 0, 0, 0, 4})
	s := lifecycle.NewStreamer(nt.NodeID)
	ivs, cnt, err := s.Replay(nt)
	if err != nil {
		t.Fatal(err)
	}
	s.OnMark(trace.Reti, 0, 1000, -1, nil, make([]uint32, nt.ProgramLen))
	ivs2, cnt2, err2 := s.Finalize()
	if err2 != nil || !reflect.DeepEqual(ivs2, ivs) || !reflect.DeepEqual(cnt2, cnt) {
		t.Fatalf("second Finalize: %+v %+v %v, want %+v %+v", ivs2, cnt2, err2, ivs, cnt)
	}

	bad := lifecycle.NewStreamer(1)
	bad.OnMark(I, 3, 10, -1, nil, make([]uint32, 4))
	bad.OnMark(R, 0, 20, -1, nil, make([]uint32, 4))
	_, _, err = bad.Finalize()
	if !errors.Is(err, lifecycle.ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	if _, _, err2 := bad.Finalize(); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second Finalize: err = %v, want %v", err2, err)
	}
}

// TestStreamerKeepFiltersOutput pins the IRQ filter: a streamer restricted
// with Keep produces exactly the kept-IRQ subset of the unfiltered output
// (same Seq numbering, same counters), while the other intervals never
// reach the result.
func TestStreamerKeepFiltersOutput(t *testing.T) {
	P, R, I, T, E := trace.PostTask, trace.RunTask, trace.Int, trace.Reti, trace.TaskEnd
	cases := []struct {
		name  string
		kinds []trace.Kind
		args  []int
	}{
		{"preempted_task", []trace.Kind{I, P, T, R, I, T, E}, []int{3, 0, 0, 0, 4, 0, 0}},
		{"interleaved", []trace.Kind{I, P, T, I, P, T, R, E, R, E}, []int{3, 0, 0, 4, 1, 0, 0, 0, 1, 1}},
		{"nested_handlers", []trace.Kind{I, I, T, P, T, R, E}, []int{3, 4, 0, 0, 0, 0, 0}},
		{"trunc_mid_task_preempt", []trace.Kind{I, P, T, R, I, T}, []int{3, 0, 0, 0, 4, 0}},
		{"same_irq_twice", []trace.Kind{I, T, I, P, T, R, E}, []int{3, 0, 3, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		nt := handBuilt(tc.kinds, tc.args)
		allIvs, allCnt, err := lifecycle.Replay(nt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var wantIvs []lifecycle.Interval
		var wantCnt []interface{}
		for i, iv := range allIvs {
			if iv.IRQ == 3 {
				wantIvs = append(wantIvs, iv)
				wantCnt = append(wantCnt, allCnt[i])
			}
		}
		kept := lifecycle.NewStreamer(nt.NodeID).Keep(3)
		counts := make([]uint32, nt.ProgramLen)
		var touched []uint16
		for _, m := range nt.Markers {
			touched = touched[:0]
			for _, d := range m.Deltas {
				if counts[d.PC] == 0 {
					touched = append(touched, d.PC)
				}
				counts[d.PC] += d.Count
			}
			kept.OnMark(m.Kind, m.Arg, m.Cycle, -1, touched, counts)
			for _, pc := range touched {
				counts[pc] = 0
			}
		}
		gotIvs, gotCnt, err := kept.Finalize()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(gotIvs) != len(wantIvs) {
			t.Fatalf("%s: kept %d intervals, want %d", tc.name, len(gotIvs), len(wantIvs))
		}
		for i := range wantIvs {
			if !reflect.DeepEqual(gotIvs[i], wantIvs[i]) {
				t.Errorf("%s: interval %d:\n got: %+v\nwant: %+v", tc.name, i, gotIvs[i], wantIvs[i])
			}
			if !reflect.DeepEqual(gotCnt[i], wantCnt[i]) {
				t.Errorf("%s: interval %d counter:\n got: %+v\nwant: %+v", tc.name, i, gotCnt[i], wantCnt[i])
			}
		}
	}
}
