package experiments

import "testing"

// The experiment functions are exercised heavily by the benchmarks; these
// tests pin the shape criteria of EXPERIMENTS.md so a regression in any
// layer (substrate, analyzer, detector) fails loudly in `go test`.

func TestCaseIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("five 10-second runs")
	}
	res, err := CaseI(CaseISeedBase)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples < 900 || res.Samples > 1400 {
		t.Errorf("samples = %d, want the paper's order (~1100)", res.Samples)
	}
	if res.Symptomatic == 0 {
		t.Fatal("no pollution symptoms")
	}
	if res.TopKHits != res.Symptomatic {
		t.Errorf("only %d/%d symptoms in the top ranks", res.TopKHits, res.Symptomatic)
	}
	if res.FirstSymptomRank != 1 {
		t.Errorf("first symptom at rank %d", res.FirstSymptomRank)
	}
}

func TestCaseIIShape(t *testing.T) {
	res, err := CaseII(CaseIISeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Symptomatic != 3 {
		t.Errorf("symptomatic = %d, want the paper's 3", res.Symptomatic)
	}
	if res.TopKHits != res.Symptomatic || res.FirstSymptomRank != 1 {
		t.Errorf("drops not at the head: first=%d hits=%d/%d",
			res.FirstSymptomRank, res.TopKHits, res.Symptomatic)
	}
}

func TestCaseIIIShape(t *testing.T) {
	res, err := CaseIII(CaseIIISeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.TriggerRank == 0 || res.TriggerRank > 5 {
		t.Errorf("FAIL trigger at rank %d, want within the top 5 (paper: 4)", res.TriggerRank)
	}
	if res.Samples < 60 || res.Samples > 120 {
		t.Errorf("samples = %d, want the paper's order (~95)", res.Samples)
	}
}

func TestOnlineEquivalenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Case I both ways at several online configs")
	}
	samples, refits, configs, equal, err := OnlineEquivalence(CaseISeedBase)
	if err != nil {
		t.Fatal(err)
	}
	if !equal {
		t.Fatal("online finalized ranking diverged from the one-shot campaign")
	}
	if configs != 5 {
		t.Errorf("exercised %d configs, want 5", configs)
	}
	if samples < 900 || samples > 1400 {
		t.Errorf("samples = %d, want the paper's order (~1100)", samples)
	}
	if refits == 0 {
		t.Error("no intermediate refits fired")
	}
}

func TestSequentialAblationShape(t *testing.T) {
	pre, seq, err := SequentialAblation()
	if err != nil {
		t.Fatal(err)
	}
	if pre == 0 {
		t.Error("preemptive substrate triggered no races")
	}
	if seq != 0 {
		t.Errorf("sequential substrate triggered %d races", seq)
	}
}
