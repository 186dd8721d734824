package feature

import (
	"math"
	"testing"
	"testing/quick"

	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/trace"
)

// twoInstanceTrace builds a trace with two overlapping ADC instances: the
// outer one's window covers the inner's handler, so its counter includes
// the inner instance's instructions (the paper's overlap property).
func twoInstanceTrace() *trace.Trace {
	nt := &trace.NodeTrace{
		NodeID:     1,
		ProgramLen: 10,
		Markers: []trace.Marker{
			{Kind: trace.Int, Arg: 3, Cycle: 100},
			{Kind: trace.PostTask, Arg: 0, Cycle: 110, Deltas: []trace.Delta{{PC: 1, Count: 3}}},
			{Kind: trace.Reti, Cycle: 120, Deltas: []trace.Delta{{PC: 2, Count: 1}}},
			{Kind: trace.Int, Arg: 3, Cycle: 200, Deltas: nil},
			{Kind: trace.Reti, Cycle: 220, Deltas: []trace.Delta{{PC: 1, Count: 3}, {PC: 2, Count: 1}}},
			{Kind: trace.RunTask, Arg: 0, Cycle: 300},
			{Kind: trace.TaskEnd, Arg: 0, Cycle: 400, Deltas: []trace.Delta{{PC: 5, Count: 8}}},
		},
	}
	return &trace.Trace{Nodes: []*trace.NodeTrace{nt}}
}

func extractIntervals(t *testing.T, tr *trace.Trace) []lifecycle.Interval {
	t.Helper()
	ivs, err := lifecycle.ExtractTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return ivs
}

func TestCounterCapturesOverlap(t *testing.T) {
	tr := twoInstanceTrace()
	ivs := extractIntervals(t, tr)
	if len(ivs) != 2 {
		t.Fatalf("%d intervals", len(ivs))
	}
	ext := NewExtractor(tr)

	outer, err := ext.Counter(ivs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(outer) != 10 {
		t.Fatalf("counter dims %d, want ProgramLen", len(outer))
	}
	// Outer window (100..400] contains BOTH handlers' instructions:
	// pc1: 3 (own) + 3 (inner) = 6; pc2: 1 + 1 = 2; pc5: 8 (task).
	if outer[1] != 6 || outer[2] != 2 || outer[5] != 8 {
		t.Fatalf("outer counter %v", outer)
	}

	inner, err := ext.Counter(ivs[1])
	if err != nil {
		t.Fatal(err)
	}
	// Inner window (200..220]: only the inner handler's instructions.
	if inner[1] != 3 || inner[2] != 1 || inner[5] != 0 {
		t.Fatalf("inner counter %v", inner)
	}
}

func TestCounterExcludesOutsideWindow(t *testing.T) {
	// Instructions before the int marker (delta attached to the int
	// marker itself) are outside the window.
	nt := &trace.NodeTrace{
		NodeID:     1,
		ProgramLen: 4,
		Markers: []trace.Marker{
			{Kind: trace.Int, Arg: 1, Cycle: 10, Deltas: []trace.Delta{{PC: 0, Count: 9}}},
			{Kind: trace.Reti, Cycle: 20, Deltas: []trace.Delta{{PC: 1, Count: 2}}},
		},
	}
	tr := &trace.Trace{Nodes: []*trace.NodeTrace{nt}}
	ivs := extractIntervals(t, tr)
	v, err := NewExtractor(tr).Counter(ivs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 0 {
		t.Fatalf("pre-window instructions counted: %v", v)
	}
	if v[1] != 2 {
		t.Fatalf("handler instructions missing: %v", v)
	}
}

func TestCounterUnknownNode(t *testing.T) {
	tr := twoInstanceTrace()
	_, err := NewExtractor(tr).Counter(lifecycle.Interval{Node: 9})
	if err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestFuncCounterAggregates(t *testing.T) {
	tr := twoInstanceTrace()
	ivs := extractIntervals(t, tr)
	prog := &isa.Program{
		Code: make([]isa.Instr, 10),
		Symbols: map[uint16][]string{
			0: {"isr"},
			4: {"task"},
		},
	}
	v, err := NewExtractor(tr).FuncCounter(prog, ivs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 {
		t.Fatalf("func counter dims %d", len(v))
	}
	// isr region [0,4): pc1 6 + pc2 2 = 8; task region [4,..): pc5 8.
	if v[0] != 8 || v[1] != 8 {
		t.Fatalf("func counter %v", v)
	}
}

func TestFuncCounterNoSymbols(t *testing.T) {
	tr := twoInstanceTrace()
	ivs := extractIntervals(t, tr)
	prog := &isa.Program{Code: make([]isa.Instr, 10)}
	if _, err := NewExtractor(tr).FuncCounter(prog, ivs[0]); err == nil {
		t.Fatal("symbol-less program accepted")
	}
}

func TestDurationFeature(t *testing.T) {
	tr := twoInstanceTrace()
	ivs := extractIntervals(t, tr)
	v := NewExtractor(tr).Duration(ivs[0])
	if len(v) != 1 || v[0] != 300 {
		t.Fatalf("duration feature %v", v)
	}
}

func TestScale01Basics(t *testing.T) {
	samples := [][]float64{
		{0, 10, 5},
		{10, 10, 7},
		{5, 10, 9},
	}
	Scale01(samples)
	want := [][]float64{
		{0, 0, 0},
		{1, 0, 0.5},
		{0.5, 0, 1},
	}
	for i := range want {
		for d := range want[i] {
			if math.Abs(samples[i][d]-want[i][d]) > 1e-12 {
				t.Fatalf("scaled[%d][%d] = %v, want %v", i, d, samples[i][d], want[i][d])
			}
		}
	}
}

func TestScale01Properties(t *testing.T) {
	check := func(raw [][3]float64) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([][]float64, len(raw))
		for i, r := range raw {
			samples[i] = []float64{r[0], r[1], r[2]}
		}
		Scale01(samples)
		for d := 0; d < 3; d++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, s := range samples {
				if s[d] < 0 || s[d] > 1 {
					return false
				}
				lo = math.Min(lo, s[d])
				hi = math.Max(hi, s[d])
			}
			// Non-constant dimensions span exactly [0,1].
			if hi > lo && (lo != 0 || hi != 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScale01Empty(t *testing.T) {
	if got := Scale01(nil); got != nil {
		t.Fatal("nil input mishandled")
	}
}

func TestStackDepthFeature(t *testing.T) {
	nt := &trace.NodeTrace{
		NodeID:     1,
		ProgramLen: 4,
		Markers: []trace.Marker{
			{Kind: trace.Int, Arg: 1, Cycle: 10, MinSP: 4000},
			{Kind: trace.PostTask, Arg: 0, Cycle: 20, MinSP: 4090},
			{Kind: trace.Reti, Cycle: 30, MinSP: 4085},
			{Kind: trace.RunTask, Arg: 0, Cycle: 40, MinSP: 4094},
			{Kind: trace.TaskEnd, Arg: 0, Cycle: 50, MinSP: 4080},
		},
	}
	tr := &trace.Trace{Nodes: []*trace.NodeTrace{nt}}
	ivs := extractIntervals(t, tr)
	v, err := NewExtractor(tr).StackDepth(ivs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Window (marker 0, marker 4]: min SP is 4080 -> depth 4095-4080.
	if len(v) != 1 || v[0] != float64(isa.RAMSize-1-4080) {
		t.Fatalf("stack depth %v", v)
	}
	// Unknown node errors.
	if _, err := NewExtractor(tr).StackDepth(lifecycle.Interval{Node: 9}); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestRecorderObserveSP(t *testing.T) {
	r := trace.NewRecorder(1, 4, false)
	r.ObserveSP(4000)
	r.ObserveSP(3990)
	r.ObserveSP(4010)
	r.Mark(trace.Int, 1, 5, 0)
	r.ObserveSP(4050)
	r.Mark(trace.Reti, 0, 9, 0)
	nt := r.Finish()
	if nt.Markers[0].MinSP != 3990 {
		t.Fatalf("first MinSP %d", nt.Markers[0].MinSP)
	}
	if nt.Markers[1].MinSP != 4050 {
		t.Fatalf("second MinSP %d (must reset between markers)", nt.Markers[1].MinSP)
	}
}

// TestScale01ConstantDims pins the constant-dimension behaviour the
// single-pass rescale must preserve: constant-zero dimensions are left
// untouched (no writes at all) and constant-nonzero dimensions collapse
// to 0, while varying dimensions still span [0,1].
func TestScale01ConstantDims(t *testing.T) {
	samples := [][]float64{
		{0, 7, 2},
		{0, 7, 4},
		{0, 7, 6},
	}
	Scale01(samples)
	want := [][]float64{
		{0, 0, 0},
		{0, 0, 0.5},
		{0, 0, 1},
	}
	for i := range want {
		for d := range want[i] {
			if samples[i][d] != want[i][d] {
				t.Fatalf("scaled[%d][%d] = %v, want %v", i, d, samples[i][d], want[i][d])
			}
		}
	}
}

// TestStackDepthMarkerBounds is the regression test for the
// Counter/StackDepth inconsistency: StackDepth used to clamp out-of-range
// markers silently where Counter errored. Both now share one validation.
func TestStackDepthMarkerBounds(t *testing.T) {
	tr := twoInstanceTrace()
	ivs := extractIntervals(t, tr)
	ext := NewExtractor(tr)
	for name, mutate := range map[string]func(*lifecycle.Interval){
		"end past markers": func(iv *lifecycle.Interval) { iv.EndMarker = len(tr.Nodes[0].Markers) },
		"negative start":   func(iv *lifecycle.Interval) { iv.StartMarker = -1 },
		"end before start": func(iv *lifecycle.Interval) { iv.StartMarker, iv.EndMarker = 3, 1 },
	} {
		iv := ivs[0]
		mutate(&iv)
		_, cntErr := ext.Counter(iv)
		_, spErr := ext.StackDepth(iv)
		if cntErr == nil || spErr == nil {
			t.Fatalf("%s: Counter err=%v, StackDepth err=%v — both must reject", name, cntErr, spErr)
		}
	}
}
