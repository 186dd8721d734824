// Package node assembles one sensor node: the SVM-8 CPU, its devices, and a
// TinyOS-style runtime implementing the paper's concurrency model
// (Section III):
//
//	Rule 1: an interrupt handler is triggered only by its hardware interrupt.
//	Rule 2: handlers and tasks run to completion unless preempted by handlers.
//	Rule 3: tasks are posted by handlers or tasks and executed FIFO.
//
// The runtime emits the lifecycle sequence (postTask, runTask, int(n), reti,
// plus the taskEnd instrumentation marker) into a trace.Recorder, and tracks
// ground-truth event-procedure instance ownership so the black-box interval
// identification of package lifecycle can be verified against reality.
package node

import (
	"fmt"
	"math"

	"sentomist/internal/dev"
	"sentomist/internal/isa"
	"sentomist/internal/mcu"
	"sentomist/internal/trace"
)

type phase uint8

const (
	phaseBoot phase = iota + 1
	phaseIdle       // scheduler: between tasks
	phaseTask       // a task body is executing
)

// BootInstance is the ground-truth instance ID for activity that belongs to
// boot code rather than to any event-procedure instance.
const BootInstance = 0

type taskEntry struct {
	id       int
	instance int
}

// Node is one simulated sensor node.
type Node struct {
	ID   int
	prog *isa.Program

	cpu     *mcu.CPU
	rec     *trace.Recorder
	devices []dev.Device

	clock    uint64
	pending  uint64 // bitmask of latched IRQs (0..63)
	sleeping bool
	ph       phase

	queue      []taskEntry
	sequential bool
	onRaise    func()

	instanceSeq   int
	handlerStack  []int
	taskInstance  int
	runningTaskID int

	led uint8
	err error
}

// Config configures a node.
type Config struct {
	ID      int
	Program *isa.Program
	Devices []dev.Device
	// RAMInit pre-seeds data RAM before boot — the moral equivalent of a
	// per-node configuration block (TOS_NODE_ID and friends), letting
	// every node run the identical binary so instruction counters stay
	// comparable across nodes.
	RAMInit map[uint16]uint8
	// Truth enables ground-truth instance recording in the trace.
	Truth bool
	// Sequential selects TOSSIM-like discrete-event semantics: an
	// interrupt is dispatched only when no handler or task is running,
	// so event procedures execute atomically and never interleave. The
	// paper's Section VI-E argues this model "will fail to capture the
	// interleaving executions of event procedures" — the mode exists to
	// demonstrate exactly that (experiment A5).
	Sequential bool
	// Sink, when set, streams every lifecycle marker (with its
	// instruction-count delta) to an online consumer as it is recorded —
	// the hook the streaming featuring pipeline uses.
	Sink trace.StreamSink
	// DiscardMarkers drops markers instead of materializing them into
	// the trace; combined with Sink this is the single-pass,
	// allocation-lean record mode (the trace stays empty).
	DiscardMarkers bool
}

// New creates a node. The program must validate.
func New(cfg Config) (*Node, error) {
	if err := cfg.Program.Validate(); err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	n := &Node{
		ID:         cfg.ID,
		prog:       cfg.Program,
		devices:    cfg.Devices,
		ph:         phaseBoot,
		sequential: cfg.Sequential,
		rec:        trace.NewRecorder(cfg.ID, len(cfg.Program.Code), cfg.Truth),
	}
	if cfg.Sink != nil || cfg.DiscardMarkers {
		n.rec.SetSink(cfg.Sink, cfg.DiscardMarkers)
	}
	n.cpu = mcu.New(cfg.Program, (*bus)(n), n.rec)
	for addr, v := range cfg.RAMInit {
		if int(addr) >= len(n.cpu.RAM) {
			return nil, fmt.Errorf("node %d: RAMInit address %#04x outside RAM", cfg.ID, addr)
		}
		n.cpu.RAM[addr] = v
	}
	return n, nil
}

// Attach adds a device after construction, for wiring that needs the node
// itself as the device's interrupt line.
func (n *Node) Attach(d dev.Device) { n.devices = append(n.devices, d) }

// Raise implements dev.IRQLine: latch an interrupt request.
func (n *Node) Raise(irq int) {
	if irq < 0 || irq > 63 {
		panic(fmt.Sprintf("node: irq %d out of range", irq))
	}
	// The hook runs before the latch on purpose: the scheduler's catch-up
	// advance of a skipped node must be a pure fast-forward — were the
	// IRQ already latched, the catch-up would dispatch it at the node's
	// stale clock instead of the round boundary.
	if n.onRaise != nil {
		n.onRaise()
	}
	n.pending |= 1 << uint(irq)
}

// SetRaiseHook installs a callback invoked on every Raise, before the IRQ
// latches. The event-horizon scheduler uses it to learn that a skipped
// (dormant) node just received a network interrupt and must be brought back
// into lockstep.
func (n *Node) SetRaiseHook(fn func()) { n.onRaise = fn }

// Clock returns the node's current cycle time (== the global clock).
func (n *Node) Clock() uint64 { return n.clock }

// Err returns the first runtime fault, if any. A faulted node stops.
func (n *Node) Err() error { return n.err }

// Halted reports whether the node stopped (HALT or fault).
func (n *Node) Halted() bool { return n.cpu.Halted || n.err != nil }

// LED returns the last value written to the debug LED port.
func (n *Node) LED() uint8 { return n.led }

// CPU exposes the processor for tests.
func (n *Node) CPU() *mcu.CPU { return n.cpu }

// Trace returns the node's recorded trace so far.
func (n *Node) Trace() *trace.NodeTrace { return n.rec.Finish() }

// Release returns the recorder's dense counter scratch to the trace
// package's pool. The node must not advance afterwards; its trace (and
// any streamed output) is unaffected.
func (n *Node) Release() { n.rec.Release() }

// QueueLen returns the current task-queue depth.
func (n *Node) QueueLen() int { return len(n.queue) }

// Runnable reports whether the node can make progress at the current clock
// without waiting for a device or network event: the CPU has code to run or
// a dispatchable interrupt is pending.
func (n *Node) Runnable() bool {
	if n.Halted() {
		return false
	}
	if n.dispatchable() {
		return true
	}
	if n.sleeping {
		return false
	}
	switch n.ph {
	case phaseBoot, phaseTask:
		return true
	case phaseIdle:
		return n.cpu.IntDepth > 0 || (len(n.queue) > 0 && n.cpu.IntDepth == 0)
	}
	return false
}

// NextDeviceEvent returns the earliest self-scheduled device event time.
func (n *Node) NextDeviceEvent() (uint64, bool) {
	best := uint64(math.MaxUint64)
	found := false
	for _, d := range n.devices {
		if at, ok := d.NextEvent(); ok && at < best {
			best = at
			found = true
		}
	}
	return best, found
}

func (n *Node) dispatchable() bool {
	if n.pending == 0 || !n.cpu.I {
		return false
	}
	if n.sequential && n.executing() {
		// TOSSIM-like mode: events wait for the current event
		// procedure to finish (no preemption, no interleaving).
		return false
	}
	return true
}

// lowestPending returns the lowest-numbered pending IRQ.
func (n *Node) lowestPending() int {
	for irq := 0; irq < 64; irq++ {
		if n.pending&(1<<uint(irq)) != 0 {
			return irq
		}
	}
	return -1
}

func (n *Node) currentInstance() int {
	if len(n.handlerStack) > 0 {
		return n.handlerStack[len(n.handlerStack)-1]
	}
	if n.ph == phaseTask {
		return n.taskInstance
	}
	return BootInstance
}

func (n *Node) fail(err error) {
	if n.err == nil {
		n.err = fmt.Errorf("node %d at cycle %d: %w", n.ID, n.clock, err)
	}
}

// JumpStatus reports how AdvanceJump ended.
type JumpStatus uint8

// AdvanceJump outcomes.
const (
	// JumpReached: the node ran (or fast-forwarded) through its returned
	// lockstep boundary; the scheduler resumes from there.
	JumpReached JumpStatus = iota + 1
	// JumpIdle: the node went idle past a lockstep boundary with its next
	// device event beyond it; the scheduler must decide at that boundary
	// whether other nodes make it a lockstep round or a global idle jump.
	JumpIdle
	// JumpDead: the node halted or faulted; the returned boundary is the
	// round the reference scheduler would have finished on.
	JumpDead
)

// Advance runs the node until the clock reaches target. Device events due
// along the way fire; the CPU executes while it has work; idle gaps are
// fast-forwarded to the next device event. It executes basic blocks between
// device-event horizons; AdvanceReference is the instruction-at-a-time
// engine with identical semantics.
func (n *Node) Advance(target uint64) {
	n.advanceBatched(target, 0, 0, nil)
}

// AdvanceJump runs the node alone toward target on the batched engine,
// under the scheduler's lockstep grid (boundaries at anchor + k*quantum,
// clamped to target). It is the single-runnable-node fast path: the caller
// guarantees no other node or network event needs servicing before target.
// The node stops early — at the exact boundary the reference lockstep
// scheduler would have realized — when it goes idle beyond a boundary
// (JumpIdle), when it halts or faults (JumpDead), or, after an I/O
// instruction makes netDirty() report pending network events, at the end of
// that instruction's round (JumpReached). The returned cycle is the
// boundary the global clock must resume from.
func (n *Node) AdvanceJump(target, anchor, quantum uint64, netDirty func() bool) (uint64, JumpStatus) {
	if quantum == 0 {
		quantum = 1
	}
	return n.advanceBatched(target, anchor, quantum, netDirty)
}

// dispatchIRQ performs Rule-1 interrupt dispatch: the lowest-numbered
// pending interrupt preempts boot code or a task (Rule 2). It returns false
// when the node failed.
func (n *Node) dispatchIRQ() bool {
	irq := n.lowestPending()
	vector, ok := n.prog.Vectors[irq]
	if !ok {
		n.fail(fmt.Errorf("interrupt %d has no vector", irq))
		return false
	}
	n.pending &^= 1 << uint(irq)
	n.sleeping = false
	cycles, err := n.cpu.Interrupt(vector)
	if err != nil {
		n.fail(err)
		return false
	}
	n.clock += uint64(cycles)
	n.rec.ObserveSP(n.cpu.SP)
	n.instanceSeq++
	inst := n.instanceSeq
	n.handlerStack = append(n.handlerStack, inst)
	n.rec.Mark(trace.Int, irq, n.clock, inst)
	return true
}

// startTask pops the task queue and enters the task body (Rule 3). It
// returns false when the node failed.
func (n *Node) startTask() bool {
	te := n.queue[0]
	n.queue = n.queue[1:]
	entry, ok := n.prog.Tasks[te.id]
	if !ok {
		n.fail(fmt.Errorf("posted task %d has no entry", te.id))
		return false
	}
	cycles, err := n.cpu.EnterTask(entry)
	if err != nil {
		n.fail(err)
		return false
	}
	n.clock += uint64(cycles)
	n.ph = phaseTask
	n.taskInstance = te.instance
	n.runningTaskID = te.id
	n.rec.Mark(trace.RunTask, te.id, n.clock, te.instance)
	return true
}

// AdvanceReference is the single-step engine: device and dispatch checks
// before every instruction. It is the executable specification of node
// semantics; Advance must be observationally identical to it. Only the
// reference scheduler (sim.NewReference) drives it, and it is slower by an
// order of magnitude.
func (n *Node) AdvanceReference(target uint64) {
	for n.clock < target && !n.Halted() {
		for _, d := range n.devices {
			d.Advance(n.clock)
		}

		if n.dispatchable() {
			if !n.dispatchIRQ() {
				return
			}
			continue
		}

		if n.executing() {
			if !n.step() {
				return
			}
			continue
		}

		if n.ph == phaseIdle && n.cpu.IntDepth == 0 && len(n.queue) > 0 {
			if !n.startTask() {
				return
			}
			continue
		}

		// Idle: fast-forward to the next device event or the target.
		next := target
		if at, ok := n.NextDeviceEvent(); ok && at < next {
			next = at
		}
		if next <= n.clock {
			next = n.clock + 1
		}
		n.clock = next
	}
	if n.clock >= target {
		for _, d := range n.devices {
			d.Advance(n.clock)
		}
	}
}

// advanceBatched is the block engine behind Advance and AdvanceJump.
//
// Equivalence to AdvanceReference rests on one invariant: nothing the
// per-instruction checks observe can change mid-block. Device raises happen
// only when devices advance (at block horizons == the next device event),
// network raises only between node advances, and the I flag and scheduler
// phase only at instructions that end blocks (SEI/CLI, RETI, OS events).
// The block horizon is min(target, next device event), and the instruction
// crossing it completes, exactly like the reference loop's clock check.
//
// When quantum is nonzero (jump mode), the node additionally respects the
// scheduler's lockstep grid as described on AdvanceJump.
func (n *Node) advanceBatched(target, anchor, quantum uint64, netDirty func() bool) (uint64, JumpStatus) {
	jump := quantum != 0
	limit := target
	dirty := false
	// obsIdle, when nonzero, is the lockstep boundary at which the reference
	// scheduler first observes the node's current idleness: the end of the
	// round the idle-causing instruction started in. The instruction itself
	// may complete past that boundary (the crossing instruction finishes),
	// so the observation point can lie before n.clock.
	obsIdle := uint64(0)

	// deadAt is the lockstep round the reference scheduler would have
	// completed, given the clock at which the fatal instruction started.
	deadAt := func(preClock uint64) uint64 {
		if !jump {
			return n.clock
		}
		b := anchor + quantum*((preClock-anchor)/quantum+1)
		if b > limit {
			b = limit
		}
		return b
	}

	for n.clock < limit && !n.Halted() {
		for _, d := range n.devices {
			d.Advance(n.clock)
		}

		if n.dispatchable() {
			if !n.dispatchIRQ() {
				return deadAt(n.clock), JumpDead
			}
			continue
		}

		if n.executing() {
			horizon := limit
			if at, ok := n.NextDeviceEvent(); ok && at < horizon {
				horizon = at
			}
			if horizon <= n.clock {
				// Devices due at or before the clock already fired
				// above; defensive single-cycle budget.
				horizon = n.clock + 1
			}
			cycles, ev, io, err := n.cpu.RunBlock(horizon - n.clock)
			n.clock += cycles
			if err != nil {
				n.fail(err)
				return deadAt(n.clock), JumpDead
			}
			if ev != mcu.EvNone {
				if !n.applyEvent(ev) {
					if ev == mcu.EvHalt {
						// The HALT started one instruction-cost earlier.
						return deadAt(n.clock - uint64(isa.HALT.Spec().Cycles)), JumpDead
					}
					return deadAt(n.clock), JumpDead
				}
				if jump && !n.Runnable() {
					// Execution ended with nothing left to run. Like the
					// HALT case above, the final instruction started one
					// instruction-cost earlier; the reference scheduler
					// observes the idleness at the end of that round.
					if c := idleEventCost(ev); c > 0 {
						obsIdle = deadAt(n.clock - c)
					}
				}
				continue
			}
			if io {
				// Single-step the I/O instruction so the bus sees an
				// exact clock (device timestamps depend on it).
				ioClock := n.clock
				if !n.step() {
					return deadAt(ioClock), JumpDead
				}
				if jump && !dirty && netDirty != nil && netDirty() {
					// The radio (or a pre-existing queue entry) has a
					// pending network event: finish the reference round
					// this instruction ran in, then hand control back.
					dirty = true
					if b := anchor + quantum*((ioClock-anchor)/quantum+1); b < limit {
						limit = b
					}
				}
			}
			continue
		}

		if n.ph == phaseIdle && n.cpu.IntDepth == 0 && len(n.queue) > 0 {
			if !n.startTask() {
				return deadAt(n.clock), JumpDead
			}
			continue
		}

		// Idle: fast-forward to the next device event or the limit.
		next := limit
		if at, ok := n.NextDeviceEvent(); ok && at < next {
			next = at
		}
		if next <= n.clock {
			next = n.clock + 1
		}
		if jump && !dirty {
			// Sleeping across a lockstep boundary: yield there so the
			// scheduler can decide whether another node wakes first. The
			// yield boundary is where the reference scheduler observes the
			// idleness — usually the next boundary up from the clock, but
			// one round earlier when the idle-causing instruction overshot
			// it (obsIdle; the clock then stays past the boundary, exactly
			// like a reference round whose crossing instruction completed).
			gb := anchor + quantum*((n.clock-anchor+quantum-1)/quantum)
			if gb > limit {
				gb = limit
			}
			if obsIdle != 0 && obsIdle < gb {
				gb = obsIdle
			}
			if next > gb {
				if n.clock < gb {
					n.clock = gb
				}
				if gb < limit {
					for _, d := range n.devices {
						d.Advance(n.clock)
					}
					return gb, JumpIdle
				}
				continue
			}
		}
		n.clock = next
	}
	if n.clock >= limit {
		for _, d := range n.devices {
			d.Advance(n.clock)
		}
	}
	if jump {
		if n.Halted() && n.clock < limit {
			return deadAt(n.clock), JumpDead
		}
		return limit, JumpReached
	}
	return n.clock, JumpReached
}

// idleEventCost returns the cycle cost of the instruction behind an OS
// event that can end execution (RET, RETI, SLEEP, OSRUN); zero for events
// that cannot. Each such event maps to exactly one instruction, so the
// instruction's start clock can be recovered from the clock after it.
func idleEventCost(ev mcu.Event) uint64 {
	switch ev {
	case mcu.EvTaskRet:
		return uint64(isa.RET.Spec().Cycles)
	case mcu.EvIntRet:
		return uint64(isa.RETI.Spec().Cycles)
	case mcu.EvSleep:
		return uint64(isa.SLEEP.Spec().Cycles)
	case mcu.EvOSRun:
		return uint64(isa.OSRUN.Spec().Cycles)
	}
	return 0
}

// executing reports whether the CPU itself has an active control flow.
func (n *Node) executing() bool {
	if n.sleeping {
		return false
	}
	return n.cpu.IntDepth > 0 || n.ph == phaseBoot || n.ph == phaseTask
}

// step executes one instruction and applies its OS event. It returns false
// when the node can no longer run.
func (n *Node) step() bool {
	cycles, ev, err := n.cpu.Step()
	if err != nil {
		n.fail(err)
		return false
	}
	n.clock += uint64(cycles)
	n.rec.ObserveSP(n.cpu.SP)
	return n.applyEvent(ev)
}

// applyEvent applies an OS event reported by the CPU (single-step or block
// engine) at the current clock. It returns false when the node can no
// longer run.
func (n *Node) applyEvent(ev mcu.Event) bool {
	switch ev {
	case mcu.EvNone:
	case mcu.EvPost:
		id := n.cpu.PostedTask
		if _, ok := n.prog.Tasks[id]; !ok {
			n.fail(fmt.Errorf("POST of unknown task %d", id))
			return false
		}
		inst := n.currentInstance()
		n.queue = append(n.queue, taskEntry{id: id, instance: inst})
		n.rec.Mark(trace.PostTask, id, n.clock, inst)
	case mcu.EvOSRun:
		if n.ph != phaseBoot {
			n.fail(fmt.Errorf("OSRUN outside boot code"))
			return false
		}
		n.ph = phaseIdle
	case mcu.EvSleep:
		n.sleeping = true
	case mcu.EvTaskRet:
		if n.ph != phaseTask {
			n.fail(fmt.Errorf("task return outside a task"))
			return false
		}
		n.rec.Mark(trace.TaskEnd, n.lastTaskID(), n.clock, n.taskInstance)
		n.ph = phaseIdle
	case mcu.EvIntRet:
		if len(n.handlerStack) == 0 {
			n.fail(fmt.Errorf("RETI with empty handler stack"))
			return false
		}
		inst := n.handlerStack[len(n.handlerStack)-1]
		n.handlerStack = n.handlerStack[:len(n.handlerStack)-1]
		n.rec.Mark(trace.Reti, 0, n.clock, inst)
	case mcu.EvHalt:
		return false
	}
	return true
}

// lastTaskID recovers the ID of the task that just returned. The runtime
// records it when the task starts.
func (n *Node) lastTaskID() int { return n.runningTaskID }
