package node

import (
	"strings"
	"testing"

	"sentomist/internal/asm"
	"sentomist/internal/dev"
	"sentomist/internal/trace"
)

func buildNode(t *testing.T, src string, devices ...func(*Node) dev.Device) *Node {
	t.Helper()
	r, err := asm.String(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	n, err := New(Config{ID: 1, Program: r.Program, Truth: true})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	for _, mk := range devices {
		n.Attach(mk(n))
	}
	return n
}

func timer0(period uint16) func(*Node) dev.Device {
	return func(n *Node) dev.Device {
		tm := dev.NewTimer(dev.IRQTimer0, n, dev.PortT0Ctrl, dev.PortT0PeriodLo, dev.PortT0PeriodHi, dev.PortT0Prescale)
		tm.Out(dev.PortT0PeriodLo, uint8(period), 0)
		tm.Out(dev.PortT0PeriodHi, uint8(period>>8), 0)
		tm.Out(dev.PortT0Ctrl, 1, 0)
		return tm
	}
}

func kinds(markers []trace.Marker) []trace.Kind {
	out := make([]trace.Kind, len(markers))
	for i, m := range markers {
		out[i] = m.Kind
	}
	return out
}

func TestBootPostAndRunTask(t *testing.T) {
	n := buildNode(t, `
.var done
.task 0, work
.entry boot
boot:
	post 0
	osrun
work:
	ldi r0, 1
	sts done, r0
	ret
`)
	n.Advance(1000)
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if n.CPU().RAM[asm.VarBase] != 1 {
		t.Fatal("task did not run")
	}
	got := kinds(n.Trace().Markers)
	want := []trace.Kind{trace.PostTask, trace.RunTask, trace.TaskEnd}
	if len(got) != len(want) {
		t.Fatalf("markers %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("marker %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTaskFIFOOrder(t *testing.T) {
	// Boot posts 2, 0, 1: they must run in exactly that order (Rule 3).
	n := buildNode(t, `
.var order, 4
.var idx
.task 0, t0
.task 1, t1
.task 2, t2
.entry boot
boot:
	post 2
	post 0
	post 1
	osrun
record:
	lds r1, idx
	stx order, r1, r0
	inc r1
	sts idx, r1
	ret
t0:
	ldi r0, 10
	call record
	ret
t1:
	ldi r0, 11
	call record
	ret
t2:
	ldi r0, 12
	call record
	ret
`)
	n.Advance(2000)
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	ram := n.CPU().RAM[asm.VarBase:]
	if ram[0] != 12 || ram[1] != 10 || ram[2] != 11 {
		t.Fatalf("run order %v, want [12 10 11]", ram[:3])
	}
}

func TestTaskPostsTask(t *testing.T) {
	// A task posting another task: both run, FIFO semantics, and the
	// posted task inherits the poster's ground-truth instance.
	n := buildNode(t, `
.var hits
.task 0, a
.task 1, b
.entry boot
boot:
	post 0
	osrun
a:
	post 1
	lds r0, hits
	inc r0
	sts hits, r0
	ret
b:
	lds r0, hits
	inc r0
	sts hits, r0
	ret
`)
	n.Advance(2000)
	if n.CPU().RAM[asm.VarBase] != 2 {
		t.Fatalf("hits = %d, want 2", n.CPU().RAM[asm.VarBase])
	}
	nt := n.Trace()
	// Boot posted task 0, so every marker belongs to BootInstance.
	for i, inst := range nt.TruthInstance {
		if inst != BootInstance {
			t.Fatalf("marker %d instance %d, want boot instance", i, inst)
		}
	}
}

func TestInterruptDrivenEventProcedure(t *testing.T) {
	n := buildNode(t, `
.var count
.vector 1, tick
.task 0, work
.entry boot
boot:
	sei
	osrun
tick:
	post 0
	reti
work:
	lds r0, count
	inc r0
	sts count, r0
	ret
`, timer0(500))
	n.Advance(2600) // fires at 500, 1000, ..., 2500
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if got := n.CPU().RAM[asm.VarBase]; got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	nt := n.Trace()
	// Each firing: int, postTask, reti, runTask, taskEnd.
	var ints, posts, retis, runs, ends int
	for _, m := range nt.Markers {
		switch m.Kind {
		case trace.Int:
			ints++
			if m.Arg != dev.IRQTimer0 {
				t.Fatalf("int arg %d", m.Arg)
			}
		case trace.PostTask:
			posts++
		case trace.Reti:
			retis++
		case trace.RunTask:
			runs++
		case trace.TaskEnd:
			ends++
		}
	}
	if ints != 5 || posts != 5 || retis != 5 || runs != 5 || ends != 5 {
		t.Fatalf("marker counts int=%d post=%d reti=%d run=%d end=%d", ints, posts, retis, runs, ends)
	}
	// Each event procedure instance owns exactly one int, one post, one
	// reti, one runTask, one taskEnd, all with the same truth ID.
	byInst := map[int][]trace.Kind{}
	for i, m := range nt.Markers {
		byInst[nt.TruthInstance[i]] = append(byInst[nt.TruthInstance[i]], m.Kind)
	}
	if len(byInst) != 5 {
		t.Fatalf("%d distinct instances, want 5", len(byInst))
	}
	for inst, ks := range byInst {
		if len(ks) != 5 {
			t.Fatalf("instance %d has markers %v", inst, ks)
		}
	}
}

func TestHandlerPreemptsTask(t *testing.T) {
	// Rule 2: a long-running task is preempted by the timer interrupt;
	// the interrupt's markers appear between the task's run and end.
	n := buildNode(t, `
.var isrRan
.vector 1, tick
.task 0, long
.entry boot
boot:
	post 0
	sei
	osrun
tick:
	push r0
	ldi r0, 1
	sts isrRan, r0
	pop r0
	reti
long:
	ldi r1, 0
spin:
	dec r1
	brne spin       ; 256 iterations * 3 cycles >> timer period
	ret
`, timer0(300))
	n.Advance(5000)
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if n.CPU().RAM[asm.VarBase] != 1 {
		t.Fatal("interrupt never ran")
	}
	// Find run(0) ... taskEnd(0) and check an Int lies between them.
	ms := n.Trace().Markers
	runIdx, endIdx := -1, -1
	for i, m := range ms {
		if m.Kind == trace.RunTask && runIdx == -1 {
			runIdx = i
		}
		if m.Kind == trace.TaskEnd && endIdx == -1 {
			endIdx = i
		}
	}
	if runIdx == -1 || endIdx == -1 || endIdx < runIdx {
		t.Fatalf("run/end markers: %d %d", runIdx, endIdx)
	}
	preempted := false
	for i := runIdx + 1; i < endIdx; i++ {
		if ms[i].Kind == trace.Int {
			preempted = true
		}
	}
	if !preempted {
		t.Fatal("no interrupt preempted the long task")
	}
}

func TestNestedInterrupts(t *testing.T) {
	// A handler that re-enables interrupts (SEI) can be preempted by
	// another interrupt: nested int-reti pairs in the lifecycle.
	n := buildNode(t, `
.var inner
.vector 1, slow
.vector 2, fast
.entry boot
boot:
	sei
	osrun
slow:
	sei             ; allow preemption
	push r0
	ldi r0, 0
slowspin:
	dec r0
	brne slowspin
	pop r0
	reti
fast:
	push r0
	lds r0, inner
	inc r0
	sts inner, r0
	pop r0
	reti
`, timer0(2000), func(n *Node) dev.Device {
		tm := dev.NewTimer(dev.IRQTimer1, n, dev.PortT1Ctrl, dev.PortT1PeriodLo, dev.PortT1PeriodHi, dev.PortT1Prescale)
		tm.Out(dev.PortT1PeriodLo, 0x2c, 0)
		tm.Out(dev.PortT1PeriodHi, 0x01, 0) // 300 cycles
		tm.Out(dev.PortT1Ctrl, 1, 0)
		return tm
	})
	n.Advance(10000)
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if n.CPU().RAM[asm.VarBase] == 0 {
		t.Fatal("nested handler never ran")
	}
	// Depth must exceed 1 somewhere.
	depth, maxDepth := 0, 0
	for _, m := range n.Trace().Markers {
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
		t.Fatalf("max interrupt nesting %d, want >= 2", maxDepth)
	}
}

func TestInterruptMaskedUntilSEI(t *testing.T) {
	n := buildNode(t, `
.vector 1, tick
.var count
.entry boot
boot:
	ldi r1, 0
delay:
	dec r1
	brne delay      ; ~768 cycles with interrupts masked
	sei
	osrun
tick:
	push r0
	lds r0, count
	inc r0
	sts count, r0
	pop r0
	reti
`, timer0(100))
	n.Advance(768)
	if n.CPU().RAM[asm.VarBase] != 0 {
		t.Fatal("interrupt dispatched while masked")
	}
	n.Advance(2000)
	if n.CPU().RAM[asm.VarBase] == 0 {
		t.Fatal("latched interrupt never dispatched after SEI")
	}
}

func TestSleepFastForward(t *testing.T) {
	// An idle node must jump across long gaps: advancing 1 simulated
	// second with a 100 ms timer costs ~10 dispatches, not 10^6 steps.
	n := buildNode(t, `
.vector 1, tick
.var count
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
`, func(n *Node) dev.Device {
		tm := dev.NewTimer(dev.IRQTimer0, n, dev.PortT0Ctrl, dev.PortT0PeriodLo, dev.PortT0PeriodHi, dev.PortT0Prescale)
		tm.Out(dev.PortT0PeriodLo, 0xa0, 0)
		tm.Out(dev.PortT0PeriodHi, 0x86, 0) // 34464
		tm.Out(dev.PortT0Ctrl, 1, 0)
		return tm
	})
	n.Advance(1_000_000)
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if got := n.CPU().RAM[asm.VarBase]; got != 29 { // 1e6 / 34464
		t.Fatalf("count = %d, want 29", got)
	}
	if n.Clock() < 1_000_000 {
		t.Fatalf("clock %d did not reach the target", n.Clock())
	}
}

func TestMarkersCyclesMonotonic(t *testing.T) {
	n := buildNode(t, `
.vector 1, tick
.task 0, work
.entry boot
boot:
	sei
	osrun
tick:
	post 0
	reti
work:
	ret
`, timer0(211))
	n.Advance(50_000)
	nt := n.Trace()
	if err := (&trace.Trace{Nodes: []*trace.NodeTrace{nt}}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeFaultUnknownVector(t *testing.T) {
	n := buildNode(t, `
.entry boot
boot:
	sei
	osrun
`, timer0(100))
	n.Advance(500)
	err := n.Err()
	if err == nil || !strings.Contains(err.Error(), "no vector") {
		t.Fatalf("err = %v, want missing-vector fault", err)
	}
	if !n.Halted() {
		t.Fatal("faulted node still runnable")
	}
}

func TestRuntimeFaultUnknownTask(t *testing.T) {
	// POST of an ID with no .task: allowed by the ISA but a runtime
	// fault at post time.
	r, err := asm.String(`
.task 0, work
.entry boot
boot:
	post 1
	osrun
work:
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: 1, Program: r.Program})
	if err != nil {
		t.Fatal(err)
	}
	n.Advance(100)
	if n.Err() == nil || !strings.Contains(n.Err().Error(), "unknown task") {
		t.Fatalf("err = %v", n.Err())
	}
}

func TestRAMInit(t *testing.T) {
	r, err := asm.String(`
.var cfg
.entry boot
boot:
	lds r0, cfg
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{ID: 1, Program: r.Program, RAMInit: map[uint16]uint8{r.Vars["cfg"]: 77}})
	if err != nil {
		t.Fatal(err)
	}
	n.Advance(10)
	if n.CPU().Regs[0] != 77 {
		t.Fatalf("r0 = %d, want the RAMInit value", n.CPU().Regs[0])
	}
}

func TestRAMInitOutOfRange(t *testing.T) {
	r, err := asm.String(".entry e\ne:\n\thalt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{ID: 1, Program: r.Program, RAMInit: map[uint16]uint8{0xffff: 1}}); err == nil {
		t.Fatal("out-of-range RAMInit accepted")
	}
}

func TestLEDPort(t *testing.T) {
	n := buildNode(t, `
.entry boot
boot:
	ldi r0, 0x5a
	out 0x40, r0
	in  r1, 0x40
	halt
`)
	n.Advance(100)
	if n.LED() != 0x5a {
		t.Fatalf("LED = %#x", n.LED())
	}
	if n.CPU().Regs[1] != 0x5a {
		t.Fatal("LED port not readable")
	}
}

func TestHaltStopsNode(t *testing.T) {
	n := buildNode(t, `
.entry boot
boot:
	halt
`)
	n.Advance(100)
	if !n.Halted() {
		t.Fatal("node not halted")
	}
	if n.Runnable() {
		t.Fatal("halted node claims runnable")
	}
}

func TestTruthInstancesDistinguishInterleavedProcedures(t *testing.T) {
	// Two event types interleave: the posted tasks must carry their own
	// poster's instance, not the preempting one's.
	n := buildNode(t, `
.vector 1, slowisr
.vector 2, fastisr
.task 0, slowtask
.task 1, fasttask
.entry boot
boot:
	sei
	osrun
slowisr:
	sei
	post 0
	push r0
	ldi r0, 0
w:
	dec r0
	brne w
	pop r0
	reti
fastisr:
	post 1
	reti
slowtask:
	ret
fasttask:
	ret
`, timer0(5000), func(n *Node) dev.Device {
		tm := dev.NewTimer(dev.IRQTimer1, n, dev.PortT1Ctrl, dev.PortT1PeriodLo, dev.PortT1PeriodHi, dev.PortT1Prescale)
		tm.Out(dev.PortT1PeriodLo, 0x49, 0)
		tm.Out(dev.PortT1PeriodHi, 0x15, 0) // 5449 cycles
		tm.Out(dev.PortT1Ctrl, 1, 0)
		return tm
	})
	n.Advance(60_000)
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	nt := n.Trace()
	// For every PostTask marker, the next RunTask with the same task ID
	// must carry the same truth instance.
	pending := map[int][]int{} // task id -> queued instances
	for i, m := range nt.Markers {
		switch m.Kind {
		case trace.PostTask:
			pending[m.Arg] = append(pending[m.Arg], nt.TruthInstance[i])
		case trace.RunTask:
			q := pending[m.Arg]
			if len(q) == 0 {
				t.Fatalf("runTask(%d) without a pending post", m.Arg)
			}
			if q[0] != nt.TruthInstance[i] {
				t.Fatalf("marker %d: runTask instance %d, posted by %d", i, nt.TruthInstance[i], q[0])
			}
			pending[m.Arg] = q[1:]
		}
	}
}

// TestTaskQueueFIFO: the ring buffer pops in push order across wraparound
// and growth, against a slice FIFO.
func TestTaskQueueFIFO(t *testing.T) {
	var q taskQueue
	var want []taskEntry
	next := 0
	for step := 0; step < 2000; step++ {
		// Push runs of growing length, pop a little less, so the queue
		// wraps at every size and grows through several doublings.
		if step%7 < 4 || len(want) == 0 {
			e := taskEntry{id: next % 5, instance: next}
			next++
			q.push(e)
			want = append(want, e)
		} else {
			got := q.pop()
			if got != want[0] {
				t.Fatalf("step %d: popped %+v, want %+v", step, got, want[0])
			}
			want = want[1:]
		}
		if q.n != len(want) {
			t.Fatalf("step %d: length %d, want %d", step, q.n, len(want))
		}
	}
	if len(q.buf) < 256 {
		t.Fatalf("queue grew to %d slots only; the test does not reach several doublings", len(q.buf))
	}
}
