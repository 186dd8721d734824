// Package trace models the runtime trace Sentomist mines: the lifecycle
// sequence of Section V-A plus the per-marker instruction-count deltas that
// make interval instruction counters (Definition 4) exact.
//
// A Trace holds, per node, an ordered series of Markers. Four marker kinds
// are the paper-visible lifecycle items — PostTask, RunTask, Int, Reti — and
// one, TaskEnd, is additional instrumentation emitted when a runTask call
// returns (observable in the paper's Avrora monitor as well). The interval
// identification algorithm consumes only the four paper kinds; TaskEnd is
// used solely to place exact wall-clock window boundaries for counting.
//
// Every marker carries a sparse delta: how many times each program counter
// executed since the previous marker of the same node. Summing deltas over a
// marker window therefore yields exactly the instructions executed in that
// window, including instructions contributed by other interleaved event
// procedure instances — the overlap the paper exploits.
package trace

import (
	"fmt"
	"sync"
)

// Kind enumerates marker kinds.
type Kind uint8

// Marker kinds. PostTask..Reti are the four lifecycle items of the paper;
// TaskEnd is instrumentation for exact interval windows.
const (
	PostTask Kind = iota + 1
	RunTask
	Int
	Reti
	TaskEnd
)

// String returns the paper's name for the marker kind.
func (k Kind) String() string {
	switch k {
	case PostTask:
		return "postTask"
	case RunTask:
		return "runTask"
	case Int:
		return "int"
	case Reti:
		return "reti"
	case TaskEnd:
		return "taskEnd"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Delta records that instruction PC executed Count times since the previous
// marker.
type Delta struct {
	PC    uint16
	Count uint32
}

// Marker is one entry of a node's lifecycle sequence.
type Marker struct {
	Kind Kind
	// Arg is the IRQ number for Int markers and the task ID for
	// PostTask, RunTask, and TaskEnd markers. It is 0 for Reti.
	Arg int
	// Cycle is the node-local cycle time of the event. For Int it is the
	// handler entry; for Reti the handler exit; for RunTask the task
	// start; for TaskEnd the task return; for PostTask the post call.
	Cycle uint64
	// Deltas lists instruction executions since the previous marker.
	Deltas []Delta
	// MinSP is the lowest stack-pointer value observed since the
	// previous marker (the stack grows downward, so lower = deeper).
	// It feeds the memory-usage attribute of the paper's Section V-B.
	MinSP uint16
}

// String renders the marker the way the paper writes lifecycle items.
func (m Marker) String() string {
	switch m.Kind {
	case Int:
		return fmt.Sprintf("int(%d)@%d", m.Arg, m.Cycle)
	case Reti:
		return fmt.Sprintf("reti@%d", m.Cycle)
	case PostTask:
		return fmt.Sprintf("postTask(%d)@%d", m.Arg, m.Cycle)
	case RunTask:
		return fmt.Sprintf("runTask(%d)@%d", m.Arg, m.Cycle)
	case TaskEnd:
		return fmt.Sprintf("taskEnd(%d)@%d", m.Arg, m.Cycle)
	}
	return fmt.Sprintf("marker(%d)@%d", uint8(m.Kind), m.Cycle)
}

// NodeTrace is the recorded execution history of one node.
type NodeTrace struct {
	NodeID int
	// ProgramLen is the number of instructions in the node's binary;
	// instruction counters over this trace have ProgramLen dimensions.
	ProgramLen int
	Markers    []Marker
	// TruthInstance, when recorded, maps marker index to the runtime's
	// ground-truth event-procedure instance ID that caused the marker
	// (-1 when not applicable). It exists so tests can verify that the
	// paper's black-box interval identification matches reality; the
	// analyzer itself never reads it.
	TruthInstance []int

	// arenas holds the delta-arena chunks the markers' Deltas alias, so
	// Release can return them to the pool in one sweep.
	arenas [][]Delta
}

// Trace is a whole test run: one NodeTrace per node.
type Trace struct {
	// Seed is the RNG seed the run was generated with.
	Seed uint64
	// Cycles is the simulated run length in cycles.
	Cycles uint64
	Nodes  []*NodeTrace
}

// Node returns the trace of the node with the given ID, or nil.
func (t *Trace) Node(id int) *NodeTrace {
	for _, n := range t.Nodes {
		if n.NodeID == id {
			return n
		}
	}
	return nil
}

// maxProgramLen is the 16-bit code space isa.Program.Validate enforces: no
// program a node can run is longer, so no counter is wider.
const maxProgramLen = 0xffff

// Validate performs structural checks: program lengths within the code
// space, non-decreasing cycles, known kinds, PCs within the program and
// once per marker, ground-truth length agreement, and the runtime's task
// order: a runTask needs a pending post and no running task, and a
// postTask outside handlers comes from boot code or a running task.
func (t *Trace) Validate() error {
	for _, n := range t.Nodes {
		if n == nil {
			return fmt.Errorf("trace: nil node trace")
		}
		if n.ProgramLen < 0 || n.ProgramLen > maxProgramLen {
			return fmt.Errorf("trace: node %d: program length %d outside [0, %d]", n.NodeID, n.ProgramLen, maxProgramLen)
		}
		if n.TruthInstance != nil && len(n.TruthInstance) != len(n.Markers) {
			return fmt.Errorf("trace: node %d: %d truth entries for %d markers",
				n.NodeID, len(n.TruthInstance), len(n.Markers))
		}
		var prev uint64
		seen := make([]int, n.ProgramLen) // 1 + the last marker naming the PC
		depth, posted, ran, running := 0, 0, 0, false
		for i, m := range n.Markers {
			switch m.Kind {
			case Int:
				depth++
			case Reti:
				depth = max(depth-1, 0)
			case PostTask:
				if depth == 0 && ran > 0 && !running {
					return fmt.Errorf("trace: node %d marker %d: postTask outside every handler and task", n.NodeID, i)
				}
				posted++
			case RunTask:
				if ran == posted || running {
					return fmt.Errorf("trace: node %d marker %d: runTask with no post pending or while a task runs", n.NodeID, i)
				}
				ran++
				running = true
			case TaskEnd:
				running = false
			default:
				return fmt.Errorf("trace: node %d marker %d: bad kind %d", n.NodeID, i, m.Kind)
			}
			if m.Cycle < prev {
				return fmt.Errorf("trace: node %d marker %d: cycle %d before %d",
					n.NodeID, i, m.Cycle, prev)
			}
			prev = m.Cycle
			for _, d := range m.Deltas {
				if int(d.PC) >= n.ProgramLen {
					return fmt.Errorf("trace: node %d marker %d: pc %d outside program of %d",
						n.NodeID, i, d.PC, n.ProgramLen)
				}
				if d.Count == 0 {
					return fmt.Errorf("trace: node %d marker %d: zero-count delta", n.NodeID, i)
				}
				if seen[d.PC] == i+1 {
					return fmt.Errorf("trace: node %d marker %d: pc %d named twice", n.NodeID, i, d.PC)
				}
				seen[d.PC] = i + 1
			}
		}
	}
	return nil
}

// SizeBytes estimates the serialized footprint of the trace: the number the
// paper contrasts with "tens of megabytes" of raw function-level logs.
func (t *Trace) SizeBytes() int {
	const markerHeader = 1 + 2 + 8 // kind + arg + cycle
	const deltaSize = 2 + 4
	size := 16
	for _, n := range t.Nodes {
		size += 8
		for _, m := range n.Markers {
			size += markerHeader + deltaSize*len(m.Deltas)
		}
	}
	return size
}

// StreamSink consumes lifecycle markers as the recorder emits them — the
// hook the streaming featuring path hangs off. OnMark is called once per
// marker, before the recorder snapshots (or discards) the accumulated
// delta: touched lists the PCs executed since the previous marker in
// first-touch order, and counts is the recorder's full dense counter
// (len == ProgramLen), nonzero exactly at the touched PCs. Both slices are
// the recorder's scratch — valid only for the duration of the call.
// instance is the ground-truth event-procedure instance ID, or -1 when the
// recorder does not record truth.
type StreamSink interface {
	OnMark(kind Kind, arg int, cycle uint64, instance int, touched []uint16, counts []uint32)
}

// Storage pools. Recorders draw their dense counter scratch, marker and
// truth storage, and delta arenas from these, and Recorder.Release /
// NodeTrace.Release return them, so campaign-style workloads that run many
// simulations recycle the big per-run allocations instead of re-growing
// them. Pool invariant: a released dense buffer is all-zero over its full
// capacity (Release zeroes the touched entries; make zeroes fresh ones),
// so acquisition never rescans.
var (
	densePool  sync.Pool // *denseBuf
	markerPool sync.Pool // *[]Marker
	truthPool  sync.Pool // *[]int
	arenaPool  sync.Pool // *[]Delta, cap == arenaChunk
)

const arenaChunk = 4096

type denseBuf struct {
	counts  []uint32
	touched []uint16
}

func getDense(programLen int) *denseBuf {
	if b, _ := densePool.Get().(*denseBuf); b != nil && cap(b.counts) >= programLen {
		b.counts = b.counts[:programLen]
		b.touched = b.touched[:0]
		return b
	}
	return &denseBuf{counts: make([]uint32, programLen)}
}

func getMarkerSlice() []Marker {
	if p, _ := markerPool.Get().(*[]Marker); p != nil {
		return (*p)[:0]
	}
	return nil
}

func putMarkerSlice(ms []Marker) {
	if cap(ms) == 0 {
		return
	}
	ms = ms[:cap(ms)]
	clear(ms) // drop the Delta references so the pool retains no arenas
	ms = ms[:0]
	markerPool.Put(&ms)
}

func getTruthSlice() []int {
	if p, _ := truthPool.Get().(*[]int); p != nil {
		return (*p)[:0]
	}
	return nil
}

func putTruthSlice(ts []int) {
	if cap(ts) == 0 {
		return
	}
	ts = ts[:0]
	truthPool.Put(&ts)
}

func getArena(n int) []Delta {
	if n <= arenaChunk {
		if p, _ := arenaPool.Get().(*[]Delta); p != nil {
			return (*p)[:0]
		}
		return make([]Delta, 0, arenaChunk)
	}
	return make([]Delta, 0, n)
}

func putArena(a []Delta) {
	if cap(a) != arenaChunk {
		return
	}
	a = a[:0]
	arenaPool.Put(&a)
}

// Release returns the node trace's marker, truth, and delta-arena storage
// to the package pools. Every view into the trace — Markers, their Deltas,
// intervals featured from them — is invalid afterwards; call it only when
// the trace is fully consumed. Safe to call more than once.
func (n *NodeTrace) Release() {
	for _, a := range n.arenas {
		putArena(a)
	}
	n.arenas = nil
	if n.Markers != nil {
		putMarkerSlice(n.Markers)
		n.Markers = nil
	}
	if n.TruthInstance != nil {
		putTruthSlice(n.TruthInstance)
		n.TruthInstance = nil
	}
}

// Release recycles the storage of every node trace; see NodeTrace.Release
// for the invalidation contract.
func (t *Trace) Release() {
	for _, n := range t.Nodes {
		n.Release()
	}
}

// Dense is a recorder's dense per-PC counter state. The MCU's block
// executor increments Counts and appends to Touched in place (via
// Recorder.Dense), skipping any per-instruction call overhead; Touched
// keeps PCs with nonzero counts in first-touch order, which fixes the
// delta order of the next marker.
type Dense struct {
	Counts  []uint32
	Touched []uint16
}

// Count records one execution of pc.
func (d *Dense) Count(pc uint16) {
	if d.Counts[pc] == 0 {
		d.Touched = append(d.Touched, pc)
	}
	d.Counts[pc]++
}

// Recorder accumulates one node's trace during emulation. It owns a dense
// per-PC counter that the MCU increments; Mark snapshots and resets it as a
// sparse delta.
type Recorder struct {
	nt    *NodeTrace
	d     Dense
	buf   *denseBuf
	truth bool
	minSP uint16
	// arena is the backing store markers' Deltas are carved from, so Mark
	// amortizes one large allocation over many markers instead of
	// allocating a fresh slice per marker.
	arena []Delta
	// sink, when set, observes every marker before it is materialized.
	sink StreamSink
	// discard drops markers instead of materializing them: the recorder
	// keeps its dense counter cycle (and feeds the sink) but the trace
	// stays empty — the memory-light mode of the streaming pipeline.
	discard bool
}

// NewRecorder creates a recorder for a node executing a program of
// programLen instructions. When truth is set, ground-truth instance IDs are
// recorded alongside markers.
func NewRecorder(nodeID, programLen int, truth bool) *Recorder {
	buf := getDense(programLen)
	return &Recorder{
		nt: &NodeTrace{
			NodeID:     nodeID,
			ProgramLen: programLen,
			Markers:    getMarkerSlice(),
		},
		d:     Dense{Counts: buf.counts, Touched: buf.touched},
		buf:   buf,
		truth: truth,
		minSP: 0xffff,
	}
}

// Release zeroes the recorder's dense counter scratch and returns it to
// the package pool. The node trace (Finish) is unaffected, but the
// recorder — and the CPU counting into it — must not run afterwards. Safe
// to call more than once.
func (r *Recorder) Release() {
	if r.buf == nil {
		return
	}
	for _, pc := range r.d.Touched {
		r.d.Counts[pc] = 0
	}
	r.buf.counts = r.d.Counts
	r.buf.touched = r.d.Touched[:0]
	densePool.Put(r.buf)
	r.buf = nil
	r.d = Dense{}
}

// SetSink installs a streaming consumer called on every Mark, and selects
// whether markers are still materialized into the node trace. With
// discardMarkers set the trace stays empty: the sink (online anatomizer)
// is the only consumer. A nil sink with discardMarkers drops the node's
// markers entirely (useful for unmonitored nodes in campaign runs). Call
// before the run starts.
func (r *Recorder) SetSink(sink StreamSink, discardMarkers bool) {
	r.sink = sink
	r.discard = discardMarkers
}

// Dense exposes the recorder's dense counter for in-place updates by the
// MCU's block executor; the executor increments counters directly instead of
// making a call per executed instruction.
func (r *Recorder) Dense() *Dense { return &r.d }

// ObserveSP records a stack-pointer sample; the minimum since the previous
// marker lands in that marker's MinSP.
func (r *Recorder) ObserveSP(sp uint16) {
	if sp < r.minSP {
		r.minSP = sp
	}
}

// CountPC records one execution of the instruction at pc.
func (r *Recorder) CountPC(pc uint16) { r.d.Count(pc) }

// CountPCs records one execution per entry of pcs, in order. First-touch
// ordering — and therefore delta ordering — is identical to calling CountPC
// in a loop.
func (r *Recorder) CountPCs(pcs []uint16) {
	counts := r.d.Counts
	for _, pc := range pcs {
		if counts[pc] == 0 {
			r.d.Touched = append(r.d.Touched, pc)
		}
		counts[pc]++
	}
}

// Mark appends a lifecycle marker carrying the delta accumulated since the
// previous marker. instance is the ground-truth event-procedure instance ID
// (use -1 when unknown); it is stored only when the recorder was created
// with truth recording enabled.
func (r *Recorder) Mark(kind Kind, arg int, cycle uint64, instance int) {
	if r.sink != nil {
		inst := instance
		if !r.truth {
			inst = -1
		}
		r.sink.OnMark(kind, arg, cycle, inst, r.d.Touched, r.d.Counts)
	}
	if r.discard {
		for _, pc := range r.d.Touched {
			r.d.Counts[pc] = 0
		}
		r.d.Touched = r.d.Touched[:0]
		r.minSP = 0xffff
		return
	}
	var deltas []Delta
	if n := len(r.d.Touched); n > 0 {
		if len(r.arena)+n > cap(r.arena) {
			r.arena = getArena(n)
			r.nt.arenas = append(r.nt.arenas, r.arena)
		}
		start := len(r.arena)
		for _, pc := range r.d.Touched {
			r.arena = append(r.arena, Delta{PC: pc, Count: r.d.Counts[pc]})
			r.d.Counts[pc] = 0
		}
		// Reslice with a hard cap so the marker's view can never alias a
		// later marker's deltas; Touched is reused as scratch.
		deltas = r.arena[start:len(r.arena):len(r.arena)]
		r.d.Touched = r.d.Touched[:0]
	}
	r.nt.Markers = append(r.nt.Markers, Marker{
		Kind: kind, Arg: arg, Cycle: cycle, Deltas: deltas, MinSP: r.minSP,
	})
	r.minSP = 0xffff
	if r.truth {
		if r.nt.TruthInstance == nil { // a node without markers keeps nil
			r.nt.TruthInstance = getTruthSlice()
		}
		r.nt.TruthInstance = append(r.nt.TruthInstance, instance)
	}
}

// Finish returns the accumulated node trace. Instructions executed after
// the last marker are discarded, mirroring a monitor detached at run end.
func (r *Recorder) Finish() *NodeTrace { return r.nt }
