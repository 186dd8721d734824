package lifecycle_test

// Cross-validation of the paper's black-box interval identification
// against the runtime's ground truth: the node runtime assigns every
// marker the event-procedure instance that truly caused it, while the
// analyzer sees only the four paper-visible item kinds. For every complete
// extracted interval, the start and end markers must coincide exactly with
// the ground-truth extent of that instance.

import (
	"fmt"
	"testing"

	"sentomist/internal/apps"
	"sentomist/internal/asm"
	"sentomist/internal/dev"
	"sentomist/internal/lifecycle"
	"sentomist/internal/node"
	"sentomist/internal/sim"
	"sentomist/internal/trace"
)

// truthExtents computes, per ground-truth instance, the first marker (its
// int) and the last marker that belongs to it (its final taskEnd, or its
// reti when it ran no tasks).
func truthExtents(nt *trace.NodeTrace) (start, end map[int]int) {
	start = make(map[int]int)
	end = make(map[int]int)
	for i, m := range nt.Markers {
		inst := nt.TruthInstance[i]
		if inst == node.BootInstance {
			continue
		}
		switch m.Kind {
		case trace.Int:
			if _, seen := start[inst]; !seen {
				start[inst] = i
			}
		case trace.TaskEnd, trace.Reti:
			end[inst] = i // last one wins
		}
	}
	return start, end
}

// verifyNode checks every complete extracted interval against ground truth
// and returns how many were verified.
func verifyNode(t *testing.T, nt *trace.NodeTrace) int {
	t.Helper()
	if nt.TruthInstance == nil {
		t.Fatal("trace has no ground truth")
	}
	ivs, err := lifecycle.NewSequence(nt).Extract()
	if err != nil {
		t.Fatalf("node %d: extract: %v", nt.NodeID, err)
	}
	start, end := truthExtents(nt)
	verified := 0
	for _, iv := range ivs {
		if !iv.Complete {
			continue
		}
		if iv.Truth == node.BootInstance {
			t.Errorf("node %d: interval starting at marker %d attributed to boot", nt.NodeID, iv.StartMarker)
			continue
		}
		if got, want := iv.StartMarker, start[iv.Truth]; got != want {
			t.Errorf("node %d instance %d: start marker %d, truth %d", nt.NodeID, iv.Truth, got, want)
		}
		if got, want := iv.EndMarker, end[iv.Truth]; got != want {
			t.Errorf("node %d instance %d: end marker %d, truth %d (irq %d seq %d)",
				nt.NodeID, iv.Truth, got, want, iv.IRQ, iv.Seq)
		}
		verified++
	}
	return verified
}

func TestExtractionMatchesTruthCaseI(t *testing.T) {
	run, err := apps.RunOscilloscope(apps.OscConfig{PeriodMS: 20, Seconds: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := verifyNode(t, run.Trace.Node(apps.OscSensorID))
	if n < 1000 {
		t.Fatalf("verified only %d intervals", n)
	}
	t.Logf("verified %d intervals against ground truth", n)
}

func TestExtractionMatchesTruthCaseII(t *testing.T) {
	run, err := apps.RunForwarder(apps.ForwarderConfig{Seconds: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, nt := range run.Trace.Nodes {
		total += verifyNode(t, nt)
	}
	if total < 500 {
		t.Fatalf("verified only %d intervals", total)
	}
	t.Logf("verified %d intervals against ground truth", total)
}

func TestExtractionMatchesTruthCaseIII(t *testing.T) {
	run, err := apps.RunCTPHeartbeat(apps.CTPConfig{Seconds: 15, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, nt := range run.Trace.Nodes {
		total += verifyNode(t, nt)
	}
	if total < 500 {
		t.Fatalf("verified only %d intervals", total)
	}
	t.Logf("verified %d intervals against ground truth", total)
}

// chaosSource is a stress workload: three timers with mutually prime
// periods drive deep task chains (tasks posting tasks, three levels), a
// preemptible handler (SEI) nests interrupts, and a busy task guarantees
// heavy interleaving. It exists purely to hammer the Figure-4 algorithm.
func chaosSource(p0, p1 uint16) string {
	return fmt.Sprintf(`
.var scratch

.vector 1, isr_a
.vector 2, isr_b
.task 0, chain1
.task 1, chain2
.task 2, chain3
.task 3, busy
.task 4, leaf
.entry boot

boot:
	ldi r0, %d
	out 0x11, r0
	ldi r0, %d
	out 0x12, r0
	ldi r0, %d
	out 0x15, r0
	ldi r0, %d
	out 0x16, r0
	ldi r0, 1
	out 0x10, r0
	out 0x14, r0
	sei
	osrun

isr_a:
	sei             ; preemptible: nested int-reti strings appear
	push r0
	ldi r0, 60      ; linger long enough for isr_b to preempt sometimes
alinger:
	dec r0
	brne alinger
	pop r0
	post 0
	post 3
	reti

isr_b:
	post 1
	reti

chain1:
	post 1
	post 4
	ret

chain2:
	post 2
	ret

chain3:
	post 4
	ret

busy:
	push r0
	ldi r0, 0
spin:
	dec r0
	brne spin
	pop r0
	ret

leaf:
	lds r0, scratch
	inc r0
	sts scratch, r0
	ret
`, p0&0xff, p0>>8, p1&0xff, p1>>8)
}

func TestExtractionMatchesTruthChaos(t *testing.T) {
	for seed := 0; seed < 5; seed++ {
		p0 := uint16(2311 + 97*seed)
		p1 := uint16(3001 + 131*seed)
		r, err := asm.String(chaosSource(p0, p1))
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.New(node.Config{ID: 1, Program: r.Program, Truth: true})
		if err != nil {
			t.Fatal(err)
		}
		n.Attach(dev.NewTimer(dev.IRQTimer0, n, dev.PortT0Ctrl, dev.PortT0PeriodLo, dev.PortT0PeriodHi, dev.PortT0Prescale))
		n.Attach(dev.NewTimer(dev.IRQTimer1, n, dev.PortT1Ctrl, dev.PortT1PeriodLo, dev.PortT1PeriodHi, dev.PortT1Prescale))
		s := sim.New(uint64(seed), []*node.Node{n}, nil)
		if err := s.Run(400_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nt := n.Trace()
		verified := verifyNode(t, nt)
		if verified < 100 {
			t.Fatalf("seed %d: verified only %d intervals of %d markers", seed, verified, len(nt.Markers))
		}
		// The chaos trace must actually contain nesting and task chains
		// or it is not stressing anything.
		depth, maxDepth := 0, 0
		for _, m := range nt.Markers {
			switch m.Kind {
			case trace.Int:
				depth++
				if depth > maxDepth {
					maxDepth = depth
				}
			case trace.Reti:
				depth--
			}
		}
		if maxDepth < 2 {
			t.Fatalf("seed %d: no nested interrupts in the chaos trace", seed)
		}
	}
}
