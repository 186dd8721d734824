package sentomist_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"sentomist"
)

func TestPublicPipelineCaseI(t *testing.T) {
	run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: 20, Seconds: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := sentomist.Mine(
		[]sentomist.RunInput{{Trace: run.Trace, Programs: run.Programs}},
		sentomist.MineConfig{
			IRQ:   sentomist.IRQADC,
			Nodes: []int{sentomist.CaseISensorID},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Samples) < 200 {
		t.Fatalf("only %d samples", len(ranking.Samples))
	}
	table := ranking.Table(3, 1)
	if !strings.Contains(table, "Score") {
		t.Fatalf("table rendering:\n%s", table)
	}
	desc, err := sentomist.DescribeInterval(run.Trace, ranking.Samples[0].Interval)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(desc, "int(3)") {
		t.Fatalf("description %q", desc)
	}
}

func TestTraceSaveLoad(t *testing.T) {
	run, err := sentomist.RunCaseII(sentomist.CaseIIConfig{Seconds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := sentomist.SaveTrace(run.Trace, path); err != nil {
		t.Fatal(err)
	}
	got, err := sentomist.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != run.Trace.Seed || len(got.Nodes) != len(run.Trace.Nodes) {
		t.Fatal("trace round trip lost data")
	}
	// A loaded trace mines identically to the in-memory one.
	r1, err := sentomist.Mine([]sentomist.RunInput{{Trace: run.Trace}},
		sentomist.MineConfig{IRQ: sentomist.IRQRadioRX, Nodes: []int{sentomist.CaseIIRelayID}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sentomist.Mine([]sentomist.RunInput{{Trace: got}},
		sentomist.MineConfig{IRQ: sentomist.IRQRadioRX, Nodes: []int{sentomist.CaseIIRelayID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Samples) != len(r2.Samples) {
		t.Fatal("rankings differ after the round trip")
	}
	for i := range r1.Samples {
		if r1.Samples[i].Score != r2.Samples[i].Score {
			t.Fatal("scores differ after the round trip")
		}
	}
}

// TestCustomScenario builds a user-defined two-node application through
// the public Scenario API: a sensing node with a deliberate race (long
// handler work after posting) and mines its intervals.
func TestCustomScenario(t *testing.T) {
	s := sentomist.NewScenario(77)
	err := s.AddNode(sentomist.NodeSpec{
		ID:     1,
		Timer0: true,
		ADC:    true,
		Radio:  true,
		Source: `
.var nreads
.vector 1, tick
.vector 3, adcdone
.vector 5, txdone
.task 0, report
.entry boot

boot:
	ldi r0, 0x10
	out T0_LO, r0
	ldi r0, 0x27
	out T0_HI, r0     ; 10000 cycles
	ldi r0, 1
	out T0_CTRL, r0
	sei
	osrun

tick:
	push r0
	ldi r0, 1
	out ADC_CTRL, r0
	pop r0
	reti

adcdone:
	push r0
	lds r0, nreads
	inc r0
	sts nreads, r0
	post 0
	pop r0
	reti

report:
	push r0
	ldi r0, 0
	out TX_DST, r0
	lds r0, nreads
	out TX_FIFO, r0
	ldi r0, CMD_SEND
	out TX_CMD, r0
	pop r0
	ret

txdone:
	reti
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.AddNode(sentomist.NodeSpec{
		ID:    0,
		Radio: true,
		Source: `
.vector 4, rx
.entry boot
boot:
	sei
	osrun
rx:
	push r0
	push r1
rxd:
	in  r1, RX_LEN
	cpi r1, 0
	breq rxdone
	in  r1, RX_FIFO
	jmp rxd
rxdone:
	pop r1
	pop r0
	reti
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Link(0, 1, 0.01)
	run, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := run.RAM(1, "nreads"); err != nil || v == 0 {
		t.Fatalf("nreads = %d, %v", v, err)
	}
	ivs, err := sentomist.ExtractIntervals(run.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) < 100 {
		t.Fatalf("only %d intervals", len(ivs))
	}
	ranking, err := sentomist.Mine(
		[]sentomist.RunInput{{Trace: run.Trace, Programs: run.Programs}},
		sentomist.MineConfig{IRQ: sentomist.IRQADC, Nodes: []int{1}, Detector: sentomist.KNNDetector(0)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Detector != "knn" {
		t.Fatalf("detector %s", ranking.Detector)
	}
}

func TestScenarioErrors(t *testing.T) {
	s := sentomist.NewScenario(1)
	if err := s.AddNode(sentomist.NodeSpec{ID: 1, Source: "garbage"}); err == nil {
		t.Fatal("bad source accepted")
	}
	minimal := ".entry e\ne:\n\tsei\n\tosrun"
	if err := s.AddNode(sentomist.NodeSpec{ID: 1, Source: minimal}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(sentomist.NodeSpec{ID: 1, Source: minimal}); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if err := s.AddNode(sentomist.NodeSpec{
		ID: 2, Source: minimal, RAMInit: map[string]uint8{"ghost": 1},
	}); err == nil {
		t.Fatal("RAMInit with unknown var accepted")
	}
	if _, err := s.Run(0.01); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0.01); err == nil {
		t.Fatal("second Run accepted")
	}
	if err := s.AddNode(sentomist.NodeSpec{ID: 3, Source: minimal}); err == nil {
		t.Fatal("AddNode after Run accepted")
	}
}

// TestScenarioRejectsBadFuzzSpec: AddNode turns every fuzz spec the
// fuzzer or the node would panic on into an error naming the node and the
// field, and still accepts the defaults.
func TestScenarioRejectsBadFuzzSpec(t *testing.T) {
	src := ".entry e\n.vector 1, isr\ne:\n\tsei\n\tosrun\nisr:\n\treti"
	for _, tc := range []struct {
		name  string
		spec  sentomist.NodeSpec
		field string
	}{
		{"irq 64", sentomist.NodeSpec{FuzzIRQs: []int{64}}, "FuzzIRQs"},
		{"irq -1", sentomist.NodeSpec{FuzzIRQs: []int{1, -1}}, "FuzzIRQs"},
		{"max gap span", sentomist.NodeSpec{FuzzIRQs: []int{1}, FuzzMaxGap: math.MaxUint64}, "FuzzMaxGap"},
		{"default max overflows", sentomist.NodeSpec{FuzzIRQs: []int{1}, FuzzMinGap: math.MaxUint64 / 4}, "FuzzMinGap"},
		{"max below min", sentomist.NodeSpec{FuzzIRQs: []int{1}, FuzzMinGap: 500, FuzzMaxGap: 100}, "FuzzMaxGap"},
	} {
		spec := tc.spec
		spec.ID, spec.Source = 7, src
		err := sentomist.NewScenario(1).AddNode(spec)
		if err == nil || !strings.Contains(err.Error(), "node 7") || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: AddNode = %v, want an error naming node 7 and %s", tc.name, err, tc.field)
		}
	}
	s := sentomist.NewScenario(1)
	if err := s.AddNode(sentomist.NodeSpec{ID: 7, Source: src, FuzzIRQs: []int{1}, FuzzMinGap: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0.01); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorConstructors(t *testing.T) {
	dets := []sentomist.Detector{
		sentomist.OneClassSVM(0, nil),
		sentomist.OneClassSVM(0.1, sentomist.RBFKernel(0.5)),
		sentomist.OneClassSVM(0.1, sentomist.LinearKernel()),
		sentomist.PCADetector(0),
		sentomist.KNNDetector(3),
		sentomist.MahalanobisDetector(),
	}
	samples := [][]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, {5, 5}}
	for _, d := range dets {
		scores, err := d.Score(samples)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if len(scores) != len(samples) {
			t.Fatalf("%s: %d scores", d.Name(), len(scores))
		}
	}
}

func TestCaseIIISourcesIsACopy(t *testing.T) {
	a := sentomist.CaseIIISources()
	a[0] = 999
	b := sentomist.CaseIIISources()
	if b[0] == 999 {
		t.Fatal("CaseIIISources leaks internal state")
	}
}
