package sim

import (
	"testing"

	"sentomist/internal/asm"
	"sentomist/internal/dev"
	"sentomist/internal/medium"
	"sentomist/internal/node"
	"sentomist/internal/randx"
)

func tickerNode(t *testing.T, id int, period uint16) *node.Node {
	t.Helper()
	r, err := asm.String(`
.var count
.vector 1, tick
.entry boot
boot:
	sei
	osrun
tick:
	push r0
	lds r0, count
	inc r0
	sts count, r0
	pop r0
	reti
`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{ID: id, Program: r.Program})
	if err != nil {
		t.Fatal(err)
	}
	tm := dev.NewTimer(dev.IRQTimer0, n, dev.PortT0Ctrl, dev.PortT0PeriodLo, dev.PortT0PeriodHi, dev.PortT0Prescale)
	tm.Out(dev.PortT0PeriodLo, uint8(period), 0)
	tm.Out(dev.PortT0PeriodHi, uint8(period>>8), 0)
	tm.Out(dev.PortT0Ctrl, 1, 0)
	n.Attach(tm)
	return n
}

func TestMultiNodeLockstep(t *testing.T) {
	a := tickerNode(t, 1, 1000)
	b := tickerNode(t, 2, 1700)
	s := New(1, []*node.Node{a, b}, nil)
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	ca := a.CPU().RAM[asm.VarBase]
	cb := b.CPU().RAM[asm.VarBase]
	// The tick at exactly t=100000 is latched at the run boundary but
	// its handler no longer runs: 99 completed handlers.
	if ca != 99 {
		t.Errorf("node 1 ticked %d times, want 99", ca)
	}
	if cb != 58 { // floor(100000/1700)
		t.Errorf("node 2 ticked %d times, want 58", cb)
	}
	if s.Clock() < 100_000 {
		t.Errorf("clock %d", s.Clock())
	}
}

func TestIdleFastForwardIsCheap(t *testing.T) {
	// A 10-second simulated run of one mostly idle node: must complete
	// within the test's default timeout by skipping idle gaps (this is
	// 1e7 cycles; stepping each would take minutes).
	n := tickerNode(t, 1, 50_000)
	s := New(1, []*node.Node{n}, nil)
	if err := s.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := n.CPU().RAM[asm.VarBase]; got != byte(10_000_000/50_000-1) {
		t.Errorf("ticks %d, want 199", got)
	}
}

func TestHaltedNodesStopTheRun(t *testing.T) {
	r, err := asm.String(`
.entry boot
boot:
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{ID: 1, Program: r.Program})
	if err != nil {
		t.Fatal(err)
	}
	s := New(1, []*node.Node{n}, nil)
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if s.Clock() >= 1_000_000 {
		t.Errorf("sim ran the full span (%d cycles) for an immediately halted node", s.Clock())
	}
}

func TestNodeFaultPropagates(t *testing.T) {
	// A program that posts an unknown task faults at runtime; Run must
	// surface it.
	r, err := asm.String(`
.task 0, w
.entry boot
boot:
	post 5
	osrun
w:
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{ID: 1, Program: r.Program})
	if err != nil {
		t.Fatal(err)
	}
	s := New(1, []*node.Node{n}, nil)
	if err := s.Run(1000); err == nil {
		t.Fatal("fault not propagated")
	}
}

func TestTraceCollection(t *testing.T) {
	a := tickerNode(t, 1, 1000)
	b := tickerNode(t, 7, 1500)
	s := New(99, []*node.Node{a, b}, nil)
	if err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if tr.Seed != 99 {
		t.Errorf("trace seed %d", tr.Seed)
	}
	if tr.Node(1) == nil || tr.Node(7) == nil {
		t.Error("trace missing nodes")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if len(tr.Node(1).Markers) == 0 {
		t.Error("node 1 trace empty")
	}
}

func TestWithNetwork(t *testing.T) {
	// One sender beacons over a network to a listener; both sides wired
	// through the sim loop.
	srcAsm := `
.vector 1, tick
.vector 5, txdone
.entry boot
boot:
	sei
	osrun
tick:
	push r0
	ldi r0, 255
	out 0x30, r0    ; broadcast
	lds r0, 0x40
	out 0x31, r0
	ldi r0, 1
	out 0x32, r0
	pop r0
	reti
txdone:
	reti
`
	rxAsm := `
.var got
.vector 4, rx
.entry boot
boot:
	sei
	osrun
rx:
	push r0
	lds r0, got
	inc r0
	sts got, r0
	push r1
rxd:
	in  r1, 0x35
	cpi r1, 0
	breq rxdone
	in  r1, 0x36
	jmp rxd
rxdone:
	pop r1
	pop r0
	reti
`
	rng := randx.New(5)
	net := medium.NewNetwork(rng)

	build := func(id int, src string, withTimer bool) *node.Node {
		r, err := asm.String(src)
		if err != nil {
			t.Fatal(err)
		}
		n, err := node.New(node.Config{ID: id, Program: r.Program})
		if err != nil {
			t.Fatal(err)
		}
		if withTimer {
			tm := dev.NewTimer(dev.IRQTimer0, n, dev.PortT0Ctrl, dev.PortT0PeriodLo, dev.PortT0PeriodHi, dev.PortT0Prescale)
			tm.Out(dev.PortT0PeriodLo, 0x50, 0)
			tm.Out(dev.PortT0PeriodHi, 0xc3, 0) // 50000 cycles
			tm.Out(dev.PortT0Ctrl, 1, 0)
			n.Attach(tm)
		}
		radio := dev.NewRadio(n)
		mac := net.NewMAC(id)
		radio.SetTransceiver(mac)
		mac.SetClient(radio)
		n.Attach(radio)
		return n
	}
	sender := build(1, srcAsm, true)
	listener := build(2, rxAsm, false)
	net.AddSymmetricLink(1, 2, 0)

	s := New(5, []*node.Node{sender, listener}, net)
	if err := s.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	got := listener.CPU().RAM[asm.VarBase]
	if got < 15 || got > 20 { // ~19 beacons in 1s at 50ms
		t.Errorf("listener received %d beacons, want ~19", got)
	}
}
