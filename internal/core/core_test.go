package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/trace"
)

// syntheticTrace builds a node trace with n normal event-procedure
// instances (IRQ 1) plus one anomalous instance whose window contains a
// nested preempting interrupt (inflating its counter), mimicking a
// transient-bug symptom.
func syntheticTrace(nodeID, n int) *trace.Trace {
	var ms []trace.Marker
	cycle := uint64(100)
	add := func(kind trace.Kind, arg int, deltas ...trace.Delta) {
		ms = append(ms, trace.Marker{Kind: kind, Arg: arg, Cycle: cycle, Deltas: deltas})
		cycle += 10
	}
	handlerDelta := func() trace.Delta { return trace.Delta{PC: 1, Count: 4} }
	taskDelta := func() trace.Delta { return trace.Delta{PC: 5, Count: 6} }
	for i := 0; i < n; i++ {
		add(trace.Int, 1)
		add(trace.PostTask, 0, handlerDelta())
		add(trace.Reti, 0)
		add(trace.RunTask, 0)
		add(trace.TaskEnd, 0, taskDelta())
	}
	// The anomaly: a second IRQ-1 instance lands between post and run.
	add(trace.Int, 1)
	add(trace.PostTask, 0, handlerDelta())
	add(trace.Reti, 0)
	add(trace.Int, 1)
	add(trace.Reti, 0, handlerDelta())
	add(trace.RunTask, 0)
	add(trace.TaskEnd, 0, taskDelta())
	return &trace.Trace{Nodes: []*trace.NodeTrace{{
		NodeID:     nodeID,
		ProgramLen: 8,
		Markers:    ms,
	}}}
}

func TestMineRanksAnomalyFirst(t *testing.T) {
	tr := syntheticTrace(1, 40)
	ranking, err := Mine([]RunInput{{Trace: tr}}, Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 40 normal + anomalous outer + its nested short instance = 42.
	if len(ranking.Samples) != 42 {
		t.Fatalf("%d samples", len(ranking.Samples))
	}
	// The anomalous outer instance (Seq 41) and the nested one-off
	// short instance (Seq 42) are both genuine outliers; they must
	// occupy the top two ranks, ahead of all 40 normal instances.
	topSeqs := map[int]bool{
		ranking.Samples[0].Interval.Seq: true,
		ranking.Samples[1].Interval.Seq: true,
	}
	if !topSeqs[41] || !topSeqs[42] {
		t.Fatalf("top two Seqs %v, want {41, 42}", topSeqs)
	}
	if ranking.Dim != 8 {
		t.Fatalf("Dim %d", ranking.Dim)
	}
	if ranking.Detector != "one-class-svm" {
		t.Fatalf("default detector %q", ranking.Detector)
	}
}

func TestMineConfigValidation(t *testing.T) {
	tr := syntheticTrace(1, 5)
	if _, err := Mine([]RunInput{{Trace: tr}}, Config{}); err == nil {
		t.Fatal("missing IRQ accepted")
	}
	if _, err := Mine([]RunInput{{}}, Config{IRQ: 1}); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := Mine([]RunInput{{Trace: tr}}, Config{IRQ: 9}); !errors.Is(err, ErrNoIntervals) {
		t.Fatalf("err = %v, want ErrNoIntervals", err)
	}
}

func TestMineNodeFilter(t *testing.T) {
	tr := syntheticTrace(1, 5)
	tr2 := syntheticTrace(2, 5)
	tr.Nodes = append(tr.Nodes, tr2.Nodes...)
	all, err := Mine([]RunInput{{Trace: tr}}, Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	only2, err := Mine([]RunInput{{Trace: tr}}, Config{IRQ: 1, Nodes: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Samples) != 2*len(only2.Samples) {
		t.Fatalf("filtering broken: %d vs %d", len(all.Samples), len(only2.Samples))
	}
	for _, s := range only2.Samples {
		if s.Interval.Node != 2 {
			t.Fatalf("sample from node %d leaked through the filter", s.Interval.Node)
		}
	}
}

// TestExtractBatchesParallelAndNodes: the batch stream is identical at any
// parallelism, and cfg.Nodes limits it to the monitored nodes, which are
// the only ones anatomized (an unmonitored malformed node is never read).
func TestExtractBatchesParallelAndNodes(t *testing.T) {
	malformed := &trace.NodeTrace{NodeID: 9, ProgramLen: 8, Markers: []trace.Marker{
		{Kind: trace.Int, Arg: 1, Cycle: 10},
		{Kind: trace.RunTask, Arg: 0, Cycle: 15},
		{Kind: trace.Reti, Cycle: 20},
	}}
	var runs []RunInput
	for r := 0; r < 3; r++ {
		tr := syntheticTrace(1, 5+r)
		for id := 2; id <= 4; id++ {
			tr.Nodes = append(tr.Nodes, syntheticTrace(id, 3*id+r).Nodes...)
		}
		runs = append(runs, RunInput{Trace: tr})
	}
	seq, err := ExtractBatches(runs, Config{IRQ: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3*4 {
		t.Fatalf("%d batches, want one per (run, node) = 12", len(seq))
	}
	par, err := ExtractBatches(runs, Config{IRQ: 1, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("batches differ between Parallelism 1 and 8")
	}

	for _, run := range runs {
		run.Trace.Nodes = append(run.Trace.Nodes, malformed)
	}
	if _, err := ExtractBatches(runs, Config{IRQ: 1}); !errors.Is(err, lifecycle.ErrMalformed) {
		t.Fatalf("malformed monitored node: err = %v, want ErrMalformed", err)
	}
	only, err := ExtractBatches(runs, Config{IRQ: 1, Nodes: []int{3, 1}, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	var want []Batch
	for _, b := range seq {
		if n := b.Intervals[0].Node; n == 1 || n == 3 {
			want = append(want, b)
		}
	}
	if !reflect.DeepEqual(only, want) {
		t.Fatalf("Nodes {3, 1}: %d batches, want the %d batches of nodes 1 and 3 in run order", len(only), len(want))
	}
}

func TestMinePoolsRuns(t *testing.T) {
	r1 := syntheticTrace(1, 10)
	r2 := syntheticTrace(1, 10)
	ranking, err := Mine([]RunInput{{Trace: r1}, {Trace: r2}}, Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Samples) != 24 {
		t.Fatalf("%d pooled samples", len(ranking.Samples))
	}
	runs := map[int]bool{}
	for _, s := range ranking.Samples {
		runs[s.Run] = true
	}
	if !runs[1] || !runs[2] {
		t.Fatalf("run indices %v", runs)
	}
}

func TestMineExcludesIncomplete(t *testing.T) {
	tr := syntheticTrace(1, 5)
	nt := tr.Nodes[0]
	// Truncate the final taskEnd: the last instance becomes incomplete.
	nt.Markers = nt.Markers[:len(nt.Markers)-1]
	ranking, err := Mine([]RunInput{{Trace: tr}}, Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Excluded != 1 {
		t.Fatalf("Excluded = %d, want 1", ranking.Excluded)
	}
}

func TestMineDurationFeature(t *testing.T) {
	tr := syntheticTrace(1, 20)
	ranking, err := Mine([]RunInput{{Trace: tr}}, Config{IRQ: 1, Feature: FeatureDuration})
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Dim != 1 {
		t.Fatalf("duration feature Dim %d", ranking.Dim)
	}
	// The anomalous instance is the longest: it must rank first even on
	// duration alone in this synthetic setup.
	if ranking.Samples[0].Interval.Seq != 21 {
		t.Fatalf("top Seq %d", ranking.Samples[0].Interval.Seq)
	}
}

func TestMineFuncCountNeedsPrograms(t *testing.T) {
	tr := syntheticTrace(1, 5)
	_, err := Mine([]RunInput{{Trace: tr}}, Config{IRQ: 1, Feature: FeatureFuncCount})
	if err == nil || !strings.Contains(err.Error(), "Programs") {
		t.Fatalf("err = %v", err)
	}
}

func TestMineCustomDetector(t *testing.T) {
	tr := syntheticTrace(1, 10)
	ranking, err := Mine([]RunInput{{Trace: tr}}, Config{IRQ: 1, Detector: outlier.Mahalanobis{}})
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Detector != "mahalanobis-diag" {
		t.Fatalf("detector %q", ranking.Detector)
	}
}

func TestRankingHelpers(t *testing.T) {
	r := &Ranking{
		Labels: LabelNodeSeq,
		Samples: []Sample{
			{Run: 1, Score: -1, Interval: lifecycle.Interval{Node: 8, Seq: 2}},
			{Run: 1, Score: 0.5, Interval: lifecycle.Interval{Node: 3, Seq: 1}},
			{Run: 1, Score: 1, Interval: lifecycle.Interval{Node: 3, Seq: 7}},
		},
	}
	if got := r.Top(2); len(got) != 2 || got[0].Interval.Node != 8 {
		t.Fatalf("Top(2) = %v", got)
	}
	if got := r.Top(99); len(got) != 3 {
		t.Fatalf("Top(99) kept %d", len(got))
	}
	rank := r.RankOf(func(s Sample) bool { return s.Interval.Seq == 7 })
	if rank != 3 {
		t.Fatalf("RankOf = %d", rank)
	}
	if r.RankOf(func(s Sample) bool { return false }) != 0 {
		t.Fatal("RankOf on no match must be 0")
	}
}

func TestSampleLabels(t *testing.T) {
	s := Sample{Run: 2, Interval: lifecycle.Interval{Node: 8, Seq: 20}}
	if got := s.Label(LabelRunSeq); got != "[2, 20]" {
		t.Errorf("run-seq label %q", got)
	}
	if got := s.Label(LabelSeqOnly); got != "20" {
		t.Errorf("seq label %q", got)
	}
	if got := s.Label(LabelNodeSeq); got != "[8, 20]" {
		t.Errorf("node-seq label %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	r := &Ranking{
		Labels: LabelSeqOnly,
		Samples: []Sample{
			{Score: -1.5554, Interval: lifecycle.Interval{Seq: 76}},
			{Score: -0.5291, Interval: lifecycle.Interval{Seq: 176}},
			{Score: 0.9921, Interval: lifecycle.Interval{Seq: 12}},
			{Score: 1.0, Interval: lifecycle.Interval{Seq: 153}},
		},
	}
	table := r.Table(2, 1)
	for _, want := range []string{"76", "-1.5554", "176", "...", "153", "1.0000"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "0.9921") {
		t.Errorf("table should elide the middle:\n%s", table)
	}
}

func TestDescribeInterval(t *testing.T) {
	tr := syntheticTrace(1, 1)
	ivs, err := lifecycle.ExtractTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	// ivs[1] is the anomalous instance with the nested interrupt.
	desc, err := DescribeInterval(tr, ivs[1])
	if err != nil {
		t.Fatal(err)
	}
	want := "int(1), postTask(0), reti, int(1), reti, runTask(0)"
	if desc != want {
		t.Fatalf("description %q, want %q", desc, want)
	}
}

func TestSymbolCountsAggregation(t *testing.T) {
	tr := syntheticTrace(1, 1)
	ivs, err := lifecycle.ExtractTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	prog := &isa.Program{
		Code: make([]isa.Instr, 8),
		Symbols: map[uint16][]string{
			0: {"isr"},
			4: {"task"},
		},
	}
	counts, err := SymbolCounts(tr, prog, ivs[1])
	if err != nil {
		t.Fatal(err)
	}
	// Anomalous window: handler delta twice (2*4 on pc1 in "isr") and
	// task delta once (6 on pc5 in "task").
	got := map[string]uint64{}
	for _, sc := range counts {
		got[sc.Symbol] = sc.Count
	}
	if got["isr"] != 8 || got["task"] != 6 {
		t.Fatalf("symbol counts %v", got)
	}
	if counts[0].Symbol != "isr" {
		t.Fatalf("not sorted by count: %v", counts)
	}
}

// TestRankingNegativeCounts: a negative row count selects no rows rather
// than slicing out of range.
func TestRankingNegativeCounts(t *testing.T) {
	r, err := Mine([]RunInput{{Trace: syntheticTrace(1, 10)}}, Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	if top := r.Top(-1); len(top) != 0 {
		t.Fatalf("Top(-1) = %d samples, want none", len(top))
	}
	if got := r.Table(-1, -1); strings.Count(got, "\n") != 1 {
		t.Fatalf("Table(-1, -1) printed rows:\n%s", got)
	}
	n := len(r.Samples)
	lines := strings.Split(strings.TrimSpace(r.Table(-1, 2)), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[1], "...") ||
		!strings.HasPrefix(lines[2], r.Samples[n-2].Label(r.Labels)) ||
		!strings.HasPrefix(lines[3], r.Samples[n-1].Label(r.Labels)) {
		t.Fatalf("Table(-1, 2) is not the header, an ellipsis and the last two rows:\n%s", r.Table(-1, 2))
	}
}
