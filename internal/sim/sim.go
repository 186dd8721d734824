// Package sim runs multi-node simulations over a shared cycle clock.
//
// The scheduler is event-horizon driven: it tracks, per node, whether the
// node can execute right now (runnable) and when its next self-scheduled
// device event fires (its wake time, kept in a min-heap together with the
// radio medium's event queue). Lockstep quanta are only spent where
// cross-node causality can actually occur:
//
//   - Globally idle: jump straight to the earliest wake/network event.
//   - Exactly one node active: the node runs alone toward the next
//     boundary anything else cares about (other wakes, network events),
//     via node.AdvanceJump, covering thousands of quanta in one call.
//   - Two or more nodes active: classic lockstep rounds, but dormant
//     nodes are skipped — a node with no work and no due device event
//     would only fast-forward its clock, which is unobservable.
//
// A raise hook on every node keeps the skipping honest: when the medium
// raises an interrupt on a node that was skipped, the node is first brought
// to the previous round boundary (reproducing the reference engine's
// dispatch quantization) and then advanced with this round.
//
// The fixed-quantum reference engine is retained behind NewReference; the
// event-horizon engine is required to produce byte-identical traces and is
// differentially tested against it.
package sim

import (
	"fmt"
	"math"
	"runtime"

	"sentomist/internal/medium"
	"sentomist/internal/node"
	"sentomist/internal/trace"
)

// DefaultQuantum is the lockstep quantum in cycles. Cross-node causality
// (carrier sense, frame delivery handoff) is bounded by one quantum, far
// below MAC timescales (hundreds to thousands of cycles).
const DefaultQuantum uint64 = 32

// Sim is one simulation run.
type Sim struct {
	nodes []*node.Node
	net   *medium.Network // may be nil for single-node runs
	clock uint64
	prev  uint64 // previous realized round boundary
	seed  uint64

	reference bool
	inited    bool

	// Per-node scheduler caches, refreshed after every advance.
	runnable    []bool
	halted      []bool
	wake        []uint64 // next self device event; MaxUint64 = none
	lastTarget  []uint64 // last boundary the node actually advanced to
	mustAdvance []bool   // raised by the medium mid-round; advance this round
	heap        *wakeHeap

	// Parallel-section state (see parallel.go). workers <= 1 keeps the
	// engine fully sequential.
	workers  int
	pool     *nodePool
	members  []sectionTask // scratch: section pass tasks
	sectIDs  []int         // scratch: advanced-node IDs for the staging barrier
	sectStop []uint64      // scratch: per-node section stop boundary
	sectDead []bool        // scratch: per-node section death flag

	stats Stats
}

// Config holds the scheduler knobs.
type Config struct {
	// Seed is recorded in the resulting trace for reproducibility.
	Seed uint64
	// ParallelNodes bounds how many nodes advance concurrently inside
	// conservative-lookahead sections; <= 1 (the default) keeps node
	// execution sequential, < 0 selects GOMAXPROCS. Traces are
	// byte-identical at any setting.
	ParallelNodes int
}

// New creates a simulation over the given nodes and (optionally nil)
// network on the event-horizon engine.
func New(cfg Config, nodes []*node.Node, net *medium.Network) *Sim {
	return &Sim{nodes: nodes, net: net, seed: cfg.Seed, workers: ResolveParallelism(cfg.ParallelNodes)}
}

// NewReference creates a simulation on the fixed-quantum reference
// scheduler: every node is advanced every round through
// node.AdvanceReference, one instruction at a time. It is the
// differential-testing baseline for New's engine, which must serialize a
// byte-identical trace, and is an order of magnitude slower.
func NewReference(seed uint64, nodes []*node.Node, net *medium.Network) *Sim {
	return &Sim{nodes: nodes, net: net, seed: seed, reference: true}
}

// ResolveParallelism maps a node-parallelism setting to the worker count
// the engine uses: w < 0 selects GOMAXPROCS, anything else is taken as is
// (<= 1 meaning sequential). Callers that budget goroutines around the
// engine resolve through it so they agree with the engine on the sentinel.
func ResolveParallelism(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Clock returns the current global cycle time.
func (s *Sim) Clock() uint64 { return s.clock }

// Run advances the simulation until the global clock reaches `until`
// cycles. It returns the first node fault encountered, if any.
func (s *Sim) Run(until uint64) error {
	if s.reference {
		return s.runReference(until)
	}
	s.init()
	// The pool is created lazily by the first section; park its workers
	// for good on exit so sims do not leak goroutines (campaigns create
	// thousands of them).
	defer func() {
		if s.pool != nil {
			s.pool.quiesce(&s.stats)
		}
	}()
	for s.clock < until {
		nRun, rIdx, alive := s.scan()
		if !alive {
			break
		}
		if nRun == 1 {
			if x := s.jumpTarget(until, rIdx); x > s.clock+DefaultQuantum {
				s.stats.SoloJumps++
				if err := s.jump(rIdx, x); err != nil {
					return err
				}
				continue
			}
		}
		if nRun >= 2 && s.workers > 1 {
			ran, err := s.trySection(until)
			if err != nil {
				return err
			}
			if ran {
				continue
			}
		}
		var t uint64
		if nRun == 0 {
			// Globally idle: jump straight to the next event.
			t = s.nextEventTime(until)
			if t <= s.clock {
				t = s.clock + 1
			}
			s.stats.IdleJumps++
		} else {
			t = s.clock + DefaultQuantum
			if t > until {
				t = until
			}
			s.stats.Rounds++
		}
		if err := s.round(t); err != nil {
			return err
		}
	}
	return nil
}

// runReference is the original fixed-quantum lockstep loop, kept verbatim
// as the semantic baseline.
func (s *Sim) runReference(until uint64) error {
	for s.clock < until {
		if s.allHaltedLive() {
			break
		}
		if !s.anyRunnableLive() {
			// Globally idle: jump straight to the next event.
			next := s.nextEventTimeLive(until)
			if next <= s.clock {
				next = s.clock + 1
			}
			s.clock = next
		} else {
			qEnd := s.clock + DefaultQuantum
			if qEnd > until {
				qEnd = until
			}
			s.clock = qEnd
		}
		if s.net != nil {
			s.net.Advance(s.clock)
		}
		for _, nd := range s.nodes {
			nd.AdvanceReference(s.clock)
			if err := nd.Err(); err != nil {
				return fmt.Errorf("sim: %w", err)
			}
		}
	}
	return nil
}

// Trace collects the recorded traces of all nodes.
func (s *Sim) Trace() *trace.Trace {
	t := &trace.Trace{Seed: s.seed, Cycles: s.clock}
	for _, nd := range s.nodes {
		t.Nodes = append(t.Nodes, nd.Trace())
	}
	return t
}

func (s *Sim) init() {
	if s.inited {
		return
	}
	s.inited = true
	n := len(s.nodes)
	s.runnable = make([]bool, n)
	s.halted = make([]bool, n)
	s.wake = make([]uint64, n)
	s.lastTarget = make([]uint64, n)
	s.mustAdvance = make([]bool, n)
	s.sectStop = make([]uint64, n)
	s.sectDead = make([]bool, n)
	s.heap = newWakeHeap(n, s.wake)
	for i := range s.nodes {
		i := i
		s.nodes[i].SetRaiseHook(func() { s.onRaise(i) })
		s.refresh(i)
	}
}

// refresh re-derives node i's scheduler caches from its live state.
func (s *Sim) refresh(i int) {
	nd := s.nodes[i]
	s.runnable[i] = nd.Runnable()
	s.halted[i] = nd.Halted()
	if at, ok := nd.NextDeviceEvent(); ok {
		s.wake[i] = at
	} else {
		s.wake[i] = math.MaxUint64
	}
	if s.runnable[i] || s.wake[i] == math.MaxUint64 {
		s.heap.remove(i)
	} else {
		s.heap.update(i)
	}
}

// onRaise runs when any device or the medium latches an interrupt on node
// i. If the node was dormant and skipped past rounds, first replay its
// fast-forward to the previous round boundary — that is where the reference
// engine's clock would be, and interrupt dispatch timestamps depend on it —
// then make sure it advances with the current round.
func (s *Sim) onRaise(i int) {
	if s.lastTarget[i] < s.prev {
		s.lastTarget[i] = s.prev
		s.nodes[i].Advance(s.prev)
	}
	s.mustAdvance[i] = true
}

// scan counts runnable nodes, returning the count, the index of one
// runnable node, and whether any node is still alive.
func (s *Sim) scan() (int, int, bool) {
	count, idx, alive := 0, -1, false
	for i := range s.nodes {
		if !s.halted[i] {
			alive = true
		}
		if s.runnable[i] {
			count++
			idx = i
		}
	}
	return count, idx, alive
}

// round realizes one lockstep boundary at t: due network events fire first
// (possibly pulling dormant nodes forward via onRaise), then every node
// that is runnable, freshly raised, or has a due device event advances.
// Skipped nodes would only fast-forward their clocks — unobservable, since
// their next interaction re-syncs them through onRaise or a due wake.
func (s *Sim) round(t uint64) error {
	s.prev = s.clock
	s.clock = t
	s.advanceNet(t)
	for i := range s.nodes {
		if s.runnable[i] || s.mustAdvance[i] || s.wake[i] <= t {
			if err := s.advanceNode(i, t); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Sim) advanceNode(i int, t uint64) error {
	nd := s.nodes[i]
	s.lastTarget[i] = t
	nd.Advance(t)
	s.mustAdvance[i] = false
	s.refresh(i)
	if err := nd.Err(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// gridUp returns the smallest lockstep boundary >= t on the grid anchored
// at c with step q.
func gridUp(c, q, t uint64) uint64 {
	if t <= c {
		return c
	}
	return c + q*((t-c+q-1)/q)
}

// jumpTarget computes how far the single runnable node r may run alone: up
// to `until`, the round of the earliest dormant wake, or one round short of
// the earliest network event (that round must start with net.Advance).
func (s *Sim) jumpTarget(until uint64, r int) uint64 {
	c, q := s.clock, DefaultQuantum
	x := until
	if i, ok := s.heap.min(); ok {
		if b := gridUp(c, q, s.wake[i]); b < x {
			x = b
		}
	}
	if s.net != nil {
		if at, ok := s.net.NextEvent(); ok {
			b := gridUp(c, q, at)
			if b <= c+q {
				return c // network event in the first round: no jump
			}
			if b-q < x {
				x = b - q
			}
		}
	}
	return x
}

// jump runs node r alone to boundary x, then realizes the boundary the node
// actually stopped on for the rest of the system.
func (s *Sim) jump(r int, x uint64) error {
	nd := s.nodes[r]
	s.prev = s.clock
	s.lastTarget[r] = x
	stop, _ := nd.AdvanceJump(x, s.clock, DefaultQuantum, s.netDirty)
	s.lastTarget[r] = stop
	s.mustAdvance[r] = false
	s.refresh(r)
	if stop > s.clock {
		s.clock = stop
	}
	if err := nd.Err(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	// No network event known at jump time can be due at or before stop
	// (jumpTarget stopped a full round short of the earliest one), but the
	// jumping node's own I/O may have scheduled nearer ones.
	s.advanceNet(s.clock)
	for i := range s.nodes {
		if i == r {
			if s.mustAdvance[r] {
				// Raised by the events just fired (which the submit delay
				// exceeding one quantum rules out today): its cache must
				// show the latched IRQ; the next round advances it.
				s.refresh(r)
			}
			continue
		}
		if s.mustAdvance[i] || s.wake[i] <= s.clock {
			if err := s.advanceNode(i, s.clock); err != nil {
				return err
			}
		}
	}
	return nil
}

// advanceNet fires due network events. It refreshes no scheduler cache:
// the raise hook is the dirty set. A medium event reaches a node only
// through its radio's medium.Client callbacks, and each either raises or
// leaves every scheduler input alone. OnTxDone always raises IRQTxDone;
// OnReceive raises IRQRadioRX or only counts a drop, which neither
// Runnable nor NextDeviceEvent reads; the radio's NextEvent is constant
// (all radio timing lives in the medium). So a node whose runnable, halted
// or wake state a medium event can change always passes through onRaise,
// which sets mustAdvance, and its caller advances and refreshes it before
// anything reads its cache. Every other node's cache is still exact.
func (s *Sim) advanceNet(t uint64) {
	if s.net == nil {
		return
	}
	if at, ok := s.net.NextEvent(); !ok || at > t {
		return
	}
	s.net.Advance(t)
}

// netDirty reports whether the medium has any scheduled event; the jumping
// node checks it after I/O instructions to end the jump once radio activity
// needs lockstep again.
func (s *Sim) netDirty() bool {
	if s.net == nil {
		return false
	}
	_, ok := s.net.NextEvent()
	return ok
}

// nextEventTime is the globally-idle jump target: the earliest dormant
// wake or network event, clamped to until.
func (s *Sim) nextEventTime(until uint64) uint64 {
	next := uint64(math.MaxUint64)
	if s.net != nil {
		if t, ok := s.net.NextEvent(); ok && t < next {
			next = t
		}
	}
	if i, ok := s.heap.min(); ok && s.wake[i] < next {
		next = s.wake[i]
	}
	if next > until {
		next = until
	}
	return next
}

func (s *Sim) allHaltedLive() bool {
	for _, nd := range s.nodes {
		if !nd.Halted() {
			return false
		}
	}
	return true
}

func (s *Sim) anyRunnableLive() bool {
	for _, nd := range s.nodes {
		if nd.Runnable() {
			return true
		}
	}
	return false
}

func (s *Sim) nextEventTimeLive(until uint64) uint64 {
	next := uint64(math.MaxUint64)
	if s.net != nil {
		if t, ok := s.net.NextEvent(); ok && t < next {
			next = t
		}
	}
	for _, nd := range s.nodes {
		if t, ok := nd.NextDeviceEvent(); ok && t < next {
			next = t
		}
	}
	if next > until {
		next = until
	}
	return next
}
