// Package medium simulates the shared radio channel and the CSMA MAC layer
// of every node (the stand-in for the CC1000 stack in the paper's Case II).
//
// The model captures exactly the properties the paper's bugs depend on:
//
//   - A send occupies the MAC for the whole control exchange — random
//     backoff, carrier sense, RTS, CTS, DATA, ACK — so there is a long
//     "busy" window during which further send requests are rejected.
//   - Frames take airtime proportional to their length at a CC1000-class
//     bitrate; overlapping transmissions at a receiver collide and corrupt.
//   - Links are lossy with per-link probabilities, and every random draw
//     comes from a seeded stream, keeping runs reproducible.
//
// The network runs on the global cycle clock through an internal event
// queue; no goroutines, no wall-clock time.
package medium

import (
	"fmt"
	"sort"

	"sentomist/internal/randx"
)

// Broadcast is the destination ID for broadcast frames. Broadcasts skip the
// RTS/CTS/ACK handshake: the frame is aired once and delivered to every
// audible neighbour.
const Broadcast = 255

// Air-interface timing in cycles (1 cycle = 1 µs at the 1 MHz clock),
// modeled on a 19.2 kbit/s CC1000-class radio.
const (
	CyclesPerByte  = 417 // ~52 µs/bit
	FrameOverhead  = 8   // preamble + sync + header bytes
	ControlBytes   = 6   // RTS/CTS/ACK frame length (incl. overhead)
	TurnaroundGap  = 120 // RX<->TX turnaround
	BackoffSlot    = 300
	BackoffWindow  = 16 // initial backoff is 1..BackoffWindow slots
	MaxCSMATries   = 6  // carrier-sense attempts before giving up
	MaxRetries     = 2  // full RTS..ACK retries after the first attempt
	TimeoutSlack   = 200
	ReserveTimeout = 4000 // receiver holds an RTS reservation this long
)

type frameKind uint8

const (
	frameRTS frameKind = iota + 1
	frameCTS
	frameData
	frameACK
)

func (k frameKind) String() string {
	switch k {
	case frameRTS:
		return "RTS"
	case frameCTS:
		return "CTS"
	case frameData:
		return "DATA"
	case frameACK:
		return "ACK"
	}
	return "?"
}

type frame struct {
	kind    frameKind
	src     int
	dst     int
	payload []byte
}

func (f frame) airtime() uint64 {
	switch f.kind {
	case frameData:
		return uint64(FrameOverhead+len(f.payload)) * CyclesPerByte
	default:
		return ControlBytes * CyclesPerByte
	}
}

// transmission is a frame on the air.
type transmission struct {
	f     frame
	from  *MAC // the sending MAC; f.src is its ID
	start uint64
	end   uint64
}

// Delivery records a data frame handed to a node's radio, for tests and
// experiment assertions (e.g. observing polluted payloads end to end).
type Delivery struct {
	Cycle   uint64
	Src     int
	Dst     int
	Payload []byte
}

// Client is the radio front end above a MAC (implemented by dev.Radio).
type Client interface {
	OnTxDone(status uint8)
	OnReceive(src int, payload []byte)
}

// TX completion codes, mirroring dev's constants (kept separate to avoid an
// import; the values must match dev.TxStatOK / dev.TxStatNoAck).
const (
	txOK    = 0
	txNoAck = 1
)

// event is a scheduled network action: either a frame delivery (tx set) or
// a callback, optionally guarded by a generation counter — the callback
// fires only if *guard still holds the generation it was scheduled with.
// Carrying the guard in the event rather than closing over it keeps the
// hot scheduling paths allocation-free (events and transmissions recycle
// on per-network freelists).
type event struct {
	at  uint64
	seq uint64

	fn    func(now uint64)
	guard *uint64
	gen   uint64

	// Delivery fields, used when tx != nil (fn is nil then).
	tx   *transmission
	dst  *MAC
	lost bool
}

// before orders events by fire time, then by scheduling sequence. seq is
// unique per network, so the order is total and the pop sequence does not
// depend on the heap's internal layout.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events in (at, seq) order, sifted
// directly on the typed slice (no container/heap interface calls).
type eventQueue []*event

func (q *eventQueue) push(e *event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event; the queue must be non-empty.
func (q *eventQueue) pop() *event {
	h := *q
	top := h[0]
	last := len(h) - 1
	x := h[last]
	h[last] = nil
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(x) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = x
	}
	*q = h
	return top
}

// link is one entry of the dense link table.
type link struct {
	loss    float64
	audible bool
}

// Network is the shared channel plus all MACs.
type Network struct {
	rng   *randx.RNG
	macs  []*MAC             // sorted by ID (deterministic receiver order)
	loss  map[[2]int]float64 // declared directed links by node ID; absent = no link
	links []link             // links[src.idx*len(macs)+dst.idx]; nil until built, see row
	queue eventQueue
	seq   uint64
	now   uint64

	onAir      []*transmission
	deliveries []Delivery

	freeEvents []*event
	freeTx     []*transmission

	// staging redirects node-initiated MAC callbacks (Submit's backoff
	// timer) into per-MAC buffers instead of the shared queue, so a
	// section can advance nodes one window at a time and still hand the
	// queue the lockstep order; see BeginStaging.
	staging       bool
	stagedScratch []stagedEvent
}

// NewNetwork creates an empty network drawing randomness from rng.
func NewNetwork(rng *randx.RNG) *Network {
	return &Network{
		rng:  rng,
		loss: make(map[[2]int]float64),
	}
}

// AddLink declares a directed radio link from a to b with the given frame
// loss probability. Call twice for a symmetric link. A link may be declared
// before or after its endpoints' MACs register; one whose endpoint never
// registers carries no traffic.
func (n *Network) AddLink(a, b int, lossProb float64) {
	n.loss[[2]int{a, b}] = lossProb
	n.links = nil
}

// AddSymmetricLink declares links in both directions with equal loss.
func (n *Network) AddSymmetricLink(a, b int, lossProb float64) {
	n.AddLink(a, b, lossProb)
	n.AddLink(b, a, lossProb)
}

// NewMAC creates and registers the MAC of node id. The client must be set
// with MAC.SetClient before traffic flows.
func (n *Network) NewMAC(id int) *MAC {
	pos := n.search(id)
	if pos < len(n.macs) && n.macs[pos].id == id {
		panic(fmt.Sprintf("medium: duplicate MAC for node %d", id))
	}
	m := &MAC{net: n, id: id, idx: len(n.macs), rng: n.rng.Split(uint64(id) + 1)}
	m.bind()
	n.macs = append(n.macs, nil)
	copy(n.macs[pos+1:], n.macs[pos:])
	n.macs[pos] = m
	n.links = nil
	return m
}

// search returns the position of the first MAC whose ID is >= id.
func (n *Network) search(id int) int {
	return sort.Search(len(n.macs), func(i int) bool { return n.macs[i].id >= id })
}

// mac returns the MAC registered for node id, or nil.
func (n *Network) mac(id int) *MAC {
	if pos := n.search(id); pos < len(n.macs) && n.macs[pos].id == id {
		return n.macs[pos]
	}
	return nil
}

// row returns src's row of the dense link table, indexed by destination
// registration position. The table is built from the declared links at
// first use after the topology changed (a MAC registered or a link was
// declared), so it is sized by the number of MACs, never by ID values, and
// the hot paths never touch the ID-keyed map.
func (n *Network) row(src *MAC) []link {
	k := len(n.macs)
	if n.links == nil {
		n.links = make([]link, k*k)
		for _, a := range n.macs {
			for _, b := range n.macs {
				p, ok := n.loss[[2]int{a.id, b.id}]
				n.links[a.idx*k+b.idx] = link{p, ok}
			}
		}
	}
	return n.links[src.idx*k : (src.idx+1)*k]
}

// Deliveries returns all data-frame deliveries so far. The slice is owned
// by the network; callers must not modify it.
func (n *Network) Deliveries() []Delivery { return n.deliveries }

// NextEvent returns the cycle of the earliest pending network event.
func (n *Network) NextEvent() (uint64, bool) {
	if len(n.queue) == 0 {
		return 0, false
	}
	return n.queue[0].at, true
}

// Advance runs all network events scheduled at or before cycle.
func (n *Network) Advance(cycle uint64) {
	for len(n.queue) > 0 && n.queue[0].at <= cycle {
		e := n.queue.pop()
		if e.at > n.now {
			n.now = e.at
		}
		n.fire(e)
		*e = event{}
		n.freeEvents = append(n.freeEvents, e)
	}
	if cycle > n.now {
		n.now = cycle
	}
	n.pruneAir(cycle)
}

// fire dispatches one popped event. A delivery event re-checks channel
// conditions at fire time (collision, half-duplex) exactly as the former
// per-receiver closures did; a guarded callback is dropped when its side's
// generation moved on.
func (n *Network) fire(e *event) {
	if e.tx != nil {
		if e.lost {
			return
		}
		if n.collided(e.tx, e.dst) {
			return
		}
		if e.dst.airingUntil > e.tx.start {
			// Receiver was transmitting during (part of) the frame:
			// half-duplex radios miss it.
			return
		}
		e.dst.onFrame(e.at, e.tx.f)
		return
	}
	if e.guard != nil && *e.guard != e.gen {
		return
	}
	e.fn(e.at)
}

// newEvent takes an event from the freelist (or allocates one) and stamps
// it with the scheduling time and the global tiebreak sequence.
func (n *Network) newEvent(at uint64) *event {
	var e *event
	if k := len(n.freeEvents); k > 0 {
		e = n.freeEvents[k-1]
		n.freeEvents = n.freeEvents[:k-1]
	} else {
		e = &event{}
	}
	n.seq++
	e.at, e.seq = at, n.seq
	return e
}

func (n *Network) schedule(at uint64, fn func(now uint64)) {
	e := n.newEvent(at)
	e.fn = fn
	n.queue.push(e)
}

// scheduleGuarded schedules fn to fire only if *guard still equals gen.
func (n *Network) scheduleGuarded(at uint64, guard *uint64, gen uint64, fn func(now uint64)) {
	e := n.newEvent(at)
	e.fn, e.guard, e.gen = fn, guard, gen
	n.queue.push(e)
}

func (n *Network) scheduleDelivery(at uint64, tx *transmission, dst *MAC, lost bool) {
	e := n.newEvent(at)
	e.tx, e.dst, e.lost = tx, dst, lost
	n.queue.push(e)
}

func (n *Network) pruneAir(now uint64) {
	kept := n.onAir[:0]
	for _, t := range n.onAir {
		// Keep a transmission around for one extra airtime so the
		// collision check of late-overlapping frames still sees it. Once
		// invisible, no event can reference it anymore (its delivery fires
		// at t.end, strictly inside the visibility window), so it recycles.
		if t.end+t.end-t.start >= now {
			kept = append(kept, t)
		} else {
			*t = transmission{}
			n.freeTx = append(n.freeTx, t)
		}
	}
	n.onAir = kept
}

// HasMACs reports whether any MAC is registered — i.e. whether node
// execution can reach the shared event queue at all. Radio-less scenarios
// still carry an (empty) Network, and schedulers use this to decide whether
// the MinSubmitDelay lookahead bound applies.
func (n *Network) HasMACs() bool { return len(n.macs) > 0 }

// MinSubmitDelay is the minimum delay, in cycles, between a node-initiated
// MAC action and the earliest shared-queue event it can create: Submit
// always passes through a random backoff of at least one slot. It is the
// conservative lookahead of the section scheduler — a section of strictly
// fewer cycles can never be invalidated by another node's submit.
const MinSubmitDelay = BackoffSlot

// stagedEvent is a queue entry captured during a staging section instead of
// being pushed to the shared heap. submitAt (the cycle of the node action
// that created it) orders the entry against other MACs' staged entries when
// the section commits.
type stagedEvent struct {
	submitAt uint64
	at       uint64
	guard    *uint64
	gen      uint64
	fn       func(now uint64)
}

// BeginStaging enters a staging section: until CommitStaged, callbacks
// scheduled from node execution (MAC.Submit) are buffered on the submitting
// MAC instead of the shared queue. Within a section each MAC may only be
// driven by its own node, so node execution never touches shared network
// state until the commit restores the lockstep order. Advance must not be
// called while staging.
func (n *Network) BeginStaging() { n.staging = true }

// CommitStaged ends a staging section and schedules everything the listed
// MACs buffered, reproducing the order a sequential lockstep engine would
// have assigned: ascending submit round (the lockstep grid is anchored at
// `anchor` with step `quantum`), then list order (callers pass node-index
// order), then per-MAC submit order. Fresh queue sequence numbers are drawn
// in exactly that order, so later ties on fire time resolve identically to
// a sequential run. IDs absent from the network are ignored.
func (n *Network) CommitStaged(ids []int, anchor, quantum uint64) int {
	n.staging = false
	if quantum == 0 {
		quantum = 1
	}
	buf := n.stagedScratch[:0]
	for _, id := range ids {
		m := n.mac(id)
		if m == nil {
			continue
		}
		buf = append(buf, m.staged...)
		m.staged = m.staged[:0]
	}
	// Stable insertion sort by submit round: sections stage a handful of
	// events, and unlike sort.SliceStable it allocates nothing.
	for i := 1; i < len(buf); i++ {
		e := buf[i]
		r := submitRound(e.submitAt, anchor, quantum)
		j := i
		for ; j > 0 && submitRound(buf[j-1].submitAt, anchor, quantum) > r; j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = e
	}
	for i := range buf {
		e := n.newEvent(buf[i].at)
		e.fn, e.guard, e.gen = buf[i].fn, buf[i].guard, buf[i].gen
		n.queue.push(e)
		buf[i] = stagedEvent{}
	}
	n.stagedScratch = buf[:0]
	return len(buf)
}

// submitRound is the lockstep boundary (grid anchor + k·quantum) ending the round of cycle at.
func submitRound(at, anchor, quantum uint64) uint64 {
	if at <= anchor {
		return anchor
	}
	return anchor + quantum*((at-anchor+quantum-1)/quantum)
}

// carrierBusyAt reports whether m hears any transmission at cycle t.
func (n *Network) carrierBusyAt(m *MAC, t uint64) bool {
	for _, tx := range n.onAir {
		if tx.from == m || !n.row(tx.from)[m.idx].audible {
			continue
		}
		if tx.start <= t && t < tx.end {
			return true
		}
	}
	return false
}

// air puts src's frame f on the channel at time now and schedules its
// reception at every audible destination. Receivers are visited in node-ID
// order: the loss draws consume the shared random stream, so iteration
// order must be deterministic or runs would not replay.
func (n *Network) air(src *MAC, now uint64, f frame) *transmission {
	var tx *transmission
	if k := len(n.freeTx); k > 0 {
		tx = n.freeTx[k-1]
		n.freeTx = n.freeTx[:k-1]
	} else {
		tx = &transmission{}
	}
	tx.f, tx.from, tx.start, tx.end = f, src, now, now+f.airtime()
	n.onAir = append(n.onAir, tx)
	row := n.row(src)
	for _, m := range n.macs {
		if m == src {
			continue
		}
		if f.dst != Broadcast && f.dst != m.id {
			// Unicast control/data frames still occupy the channel
			// for overhearers (carrier sense sees them via onAir),
			// but are not decoded by third parties.
			continue
		}
		l := row[m.idx]
		if !l.audible {
			continue
		}
		// A lost frame still draws from the shared stream (replay
		// determinism) and still schedules, so event ordering is
		// unchanged; the delivery is simply dropped at fire time.
		n.scheduleDelivery(tx.end, tx, m, n.rng.Bool(l.loss))
	}
	return tx
}

// collided reports whether another audible transmission overlapped tx at
// receiver dst. The check runs when tx's delivery event fires (at tx.end), so
// visibility must be a pure function of time, not of how often Advance was
// called: a finished transmission stops counting once its collision window
// (one extra airtime past its end) has expired. pruneAir merely reclaims
// memory for entries that are already invisible under this rule.
func (n *Network) collided(tx *transmission, dst *MAC) bool {
	for _, other := range n.onAir {
		if other == tx || other.from == tx.from || other.from == dst {
			continue
		}
		if other.end+(other.end-other.start) < tx.end {
			continue // collision window expired before the check time
		}
		if !n.row(other.from)[dst.idx].audible {
			continue
		}
		if other.start < tx.end && tx.start < other.end {
			return true
		}
	}
	return false
}
