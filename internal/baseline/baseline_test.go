package baseline

import (
	"math"
	"testing"

	"sentomist/internal/trace"
)

func ev(kind trace.Kind, arg int) Event { return Event{Kind: kind, Arg: arg} }

// segs builds labelled segments: good ones follow the normal pattern, bad
// ones contain the planted subsequence int(3) int(3) (a doubled interrupt).
func segs(good, bad int) []Segment {
	normal := []Event{ev(trace.Int, 3), ev(trace.PostTask, 0), ev(trace.Reti, 0), ev(trace.RunTask, 0)}
	buggy := []Event{ev(trace.Int, 3), ev(trace.PostTask, 0), ev(trace.Reti, 0), ev(trace.Int, 3), ev(trace.Reti, 0), ev(trace.RunTask, 0)}
	var out []Segment
	for i := 0; i < good; i++ {
		out = append(out, Segment{Events: normal})
	}
	for i := 0; i < bad; i++ {
		out = append(out, Segment{Events: buggy, Bad: true})
	}
	return out
}

func TestDiscriminativeFindsPlantedPattern(t *testing.T) {
	patterns, err := Discriminative(segs(50, 3), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	top := patterns[0]
	if top.Score != 1 {
		t.Fatalf("top score %v, want 1 (bad-only pattern)", top.Score)
	}
	// The top pattern must involve the doubled interrupt: it contains
	// a reti followed by int(3) (only bad segments have that bigram).
	found := false
	for _, p := range patterns {
		for i := 0; i+1 < len(p.Events); i++ {
			if p.Events[i].Kind == trace.Reti && p.Events[i+1].Kind == trace.Int {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("planted discriminative bigram not in the top patterns: %v", patterns)
	}
}

func TestDiscriminativeNeedsBothClasses(t *testing.T) {
	if _, err := Discriminative(segs(10, 0), 2, 5); err == nil {
		t.Fatal("all-good segments accepted")
	}
	if _, err := Discriminative(segs(0, 10), 2, 5); err == nil {
		t.Fatal("all-bad segments accepted")
	}
}

func TestDiscriminativeDeterministicOrder(t *testing.T) {
	a, err := Discriminative(segs(20, 2), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Discriminative(segs(20, 2), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("pattern counts differ")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("order differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPatternStringRendering(t *testing.T) {
	p := Pattern{
		Events:  []Event{ev(trace.Int, 3), ev(trace.Reti, 0)},
		BadFrac: 1, GoodFrac: 0.25, Score: 0.75,
	}
	want := "[int(3) reti] bad=1.00 good=0.25 score=0.75"
	if got := p.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestExpectedBruteForceInspections(t *testing.T) {
	tests := []struct {
		n, s int
		want float64
	}{
		{195, 3, 49},
		{99, 0, 99},
		{9, 1, 5},
	}
	for _, tt := range tests {
		if got := ExpectedBruteForceInspections(tt.n, tt.s); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("E[%d,%d] = %v, want %v", tt.n, tt.s, got, tt.want)
		}
	}
}

func TestRandomDetector(t *testing.T) {
	samples := make([][]float64, 30)
	for i := range samples {
		samples[i] = []float64{float64(i)}
	}
	r := Random{Seed: 1}
	s1, err := r.Score(samples)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Score(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("random detector not reproducible for a fixed seed")
		}
	}
	other, err := Random{Seed: 2}.Score(samples)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range s1 {
		if s1[i] == other[i] {
			same++
		}
	}
	if same == len(s1) {
		t.Fatal("different seeds gave identical scores")
	}
}
