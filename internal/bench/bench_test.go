package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sentomist/internal/apps"
)

// The legacy case-study oracles conform to the Oracle interface as-is:
// OracleFunc is exactly their shape.
var (
	_ Oracle = OracleFunc(apps.CaseISymptom)
	_ Oracle = OracleFunc(apps.CaseIISymptom)
	_ Oracle = OracleFunc(apps.CaseIIISymptom)
	_ Oracle = OracleFunc(apps.CaseIIITrigger)
)

// TestCatalogSane checks the static shape of the corpus: unique names,
// known classes, complete entries, and the ISSUE-9 floor of at least five
// seeded bugs beyond the three case studies.
func TestCatalogSane(t *testing.T) {
	entries := Catalog()
	known := map[string]bool{ClassAtomicity: true, ClassErrorHandling: true, ClassProtocol: true}
	names := map[string]bool{}
	legacy := map[string]bool{"case-i-pollution": true, "case-ii-busy-drop": true, "case-iii-hang": true}
	seeded := 0
	for _, e := range entries {
		if names[e.Name] {
			t.Errorf("duplicate entry name %q", e.Name)
		}
		names[e.Name] = true
		if !known[e.Class] {
			t.Errorf("entry %s: unknown class %q", e.Name, e.Class)
		}
		if e.Runs == nil || e.Oracle == nil || e.IRQ == 0 || e.Description == "" {
			t.Errorf("entry %s: incomplete (runs/oracle/irq/description)", e.Name)
		}
		if !legacy[e.Name] {
			seeded++
		}
	}
	for name := range legacy {
		if !names[name] {
			t.Errorf("catalog lost legacy entry %s", name)
		}
	}
	if seeded < 5 {
		t.Errorf("catalog has %d seeded bugs beyond the case studies, want >= 5", seeded)
	}
}

func TestPrecisionAt(t *testing.T) {
	verdicts := []bool{true, false, true, false, false}
	for _, tc := range []struct {
		k    int
		want float64
	}{
		{1, 1}, {3, 2.0 / 3}, {5, 2.0 / 5},
		// k beyond the ranking falls back to the full depth.
		{10, 2.0 / 5},
	} {
		if got := precisionAt(verdicts, tc.k); got != tc.want {
			t.Errorf("precisionAt(k=%d) = %v, want %v", tc.k, got, tc.want)
		}
	}
	if got := precisionAt(nil, 3); got != 0 {
		t.Errorf("precisionAt on empty ranking = %v, want 0", got)
	}
}

func TestAggregateClasses(t *testing.T) {
	entries := []Result{
		{Name: "a", Class: ClassAtomicity, PrecisionAt: []float64{1, 1, 0.5, 0.25}, ReciprocalRank: 1},
		{Name: "b", Class: ClassProtocol, PrecisionAt: []float64{0, 0.5, 0.5, 0.5}, ReciprocalRank: 0.5},
		{Name: "c", Class: ClassAtomicity, PrecisionAt: []float64{0, 0, 0.5, 0.75}, ReciprocalRank: 0.25},
	}
	classes := aggregateClasses(entries)
	if len(classes) != 2 {
		t.Fatalf("got %d classes, want 2", len(classes))
	}
	// First-appearance order: atomicity then protocol.
	at := classes[0]
	if at.Class != ClassAtomicity || at.Entries != 2 {
		t.Fatalf("first class = %s/%d, want atomicity/2", at.Class, at.Entries)
	}
	if want := []float64{0.5, 0.5, 0.5, 0.5}; !floatsEqual(at.PrecisionAt, want) {
		t.Errorf("atomicity precision@k = %v, want %v", at.PrecisionAt, want)
	}
	if at.MRR != 0.625 {
		t.Errorf("atomicity MRR = %v, want 0.625", at.MRR)
	}
	if classes[1].Class != ClassProtocol || classes[1].MRR != 0.5 {
		t.Errorf("second class = %s MRR %v, want protocol 0.5", classes[1].Class, classes[1].MRR)
	}
}

func TestCompareReports(t *testing.T) {
	base := &Report{
		PrecisionKs: PrecisionKs,
		Entries: []Result{
			{Name: "a", Class: ClassAtomicity, Samples: 10, Symptomatic: 2, FirstRank: 1,
				PrecisionAt: []float64{1, 0.5, 0.4, 0.2}, ReciprocalRank: 1, FixedChecked: 9},
		},
		Classes: []ClassResult{
			{Class: ClassAtomicity, Entries: 1, PrecisionAt: []float64{1, 0.5, 0.4, 0.2}, MRR: 1},
		},
	}
	if diffs := Compare(base, base); len(diffs) != 0 {
		t.Fatalf("identical reports diff: %v", diffs)
	}

	worse := *base
	worse.Entries = []Result{base.Entries[0]}
	worse.Entries[0].FirstRank = 4
	worse.Entries[0].ReciprocalRank = 0.25
	diffs := Compare(&worse, base)
	if len(diffs) != 2 {
		t.Fatalf("rank regression produced %d diffs (%v), want 2", len(diffs), diffs)
	}

	extra := *base
	extra.Entries = append([]Result{}, base.Entries...)
	extra.Entries = append(extra.Entries, Result{Name: "new", Class: ClassProtocol})
	if diffs := Compare(&extra, base); len(diffs) != 1 {
		t.Errorf("new entry produced %d diffs (%v), want 1", len(diffs), diffs)
	}
	if diffs := Compare(base, &extra); len(diffs) != 1 {
		t.Errorf("missing entry produced %d diffs (%v), want 1", len(diffs), diffs)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	rep := &Report{
		PrecisionKs: PrecisionKs,
		Entries: []Result{{Name: "a", Class: ClassAtomicity, Samples: 3, Symptomatic: 1,
			FirstRank: 2, PrecisionAt: []float64{0, 0.333333, 0.333333, 0.333333},
			ReciprocalRank: 0.5, FixedChecked: 3}},
		Classes: []ClassResult{{Class: ClassAtomicity, Entries: 1,
			PrecisionAt: []float64{0, 0.333333, 0.333333, 0.333333}, MRR: 0.5}},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(rep, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(rep, loaded); len(diffs) != 0 {
		t.Errorf("round-tripped baseline diffs: %v", diffs)
	}
}

// TestBaselineMatches is the in-tree half of the CI gate: the full corpus,
// evaluated fresh, must match the checked-in BENCH_QUALITY.json exactly.
// Everything underneath is deterministic (seeded runs, byte-identical
// traces, rounded metrics), so any diff is a real quality change.
func TestBaselineMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation in -short mode")
	}
	want, err := LoadBaseline("../../BENCH_QUALITY.json")
	if err != nil {
		t.Fatalf("missing baseline (regenerate with `go run ./cmd/sentomist bench -update BENCH_QUALITY.json`): %v", err)
	}
	got, err := EvaluateAll(Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Compare(got, want) {
		t.Error(d)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the ablation matrix golden file")

// TestAblationMatrixGolden pins every cell of the ablation matrix: each
// catalog entry mined by each arm. Everything underneath is deterministic,
// so any difference is a real change in some mining mode's quality; after
// a deliberate one, regenerate with
//
//	go test ./internal/bench -run TestAblationMatrixGolden -update
func TestAblationMatrixGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus evaluation in -short mode")
	}
	m, err := EvaluateMatrix(Catalog(), Arms())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Format()
	path := filepath.Join("testdata", "ablation_matrix.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("ablation matrix drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
	checkDeletionRule(t, m, Arms())
}

// exemptDetectors keep their place whatever the matrix shows: the paper's
// default, its named alternative (PCA, Section VI-E), the A3 linear kernel
// and the null baseline.
var exemptDetectors = map[string]bool{"svm": true, "svm-linear": true, "pca": true, "random": true}

// checkDeletionRule applies the rule of docs/PERFORMANCE.md's "Decision
// record: mining modes that earn their place": every other detector arm on
// the paper's counter must be strictly best among those arms on some
// entry, ranked by first rank and then by symptoms in the top 5.
func checkDeletionRule(t *testing.T, m *Matrix, arms []Arm) {
	t.Helper()
	better := func(a, b Cell) bool {
		return a.FirstRank < b.FirstRank || a.FirstRank == b.FirstRank && a.Top5 > b.Top5
	}
	for j, a := range arms {
		if a.Feature != 0 || exemptDetectors[a.Name] {
			continue
		}
		earned := false
		for _, row := range m.Cells {
			best := true
			for k, b := range arms {
				if k != j && b.Feature == 0 && !better(row[j], row[k]) {
					best = false
				}
			}
			earned = earned || best
		}
		if !earned {
			t.Errorf("detector arm %s is strictly best on no entry: by the deletion rule it goes", a.Name)
		}
	}
}
