package medium

import "sentomist/internal/randx"

type txState uint8

const (
	txIdle txState = iota + 1
	txBackoff
	txWaitCTS
	txSendingData
	txWaitACK
	txBcast
)

type rxState uint8

const (
	rxIdle     rxState = iota + 1
	rxReserved         // CTS sent, waiting for DATA
	rxAcking           // ACK on the air
)

// MAC is one node's medium-access controller. It implements
// dev.Transceiver (Submit, Busy) and drives its Client (the radio front
// end) with OnTxDone / OnReceive callbacks.
//
// The transmit and receive paths are independent state machines sharing
// only the half-duplex antenna: a node mid-send (between its own frames)
// can still receive and acknowledge incoming traffic. This mirrors the
// CC1000 stack in the paper's Case II, where a relay receives a packet
// while its software busy flag — which reflects the *transmit* exchange —
// is still set.
type MAC struct {
	net    *Network
	id     int
	idx    int // registration order: the MAC's row and column in the link table
	rng    *randx.RNG
	client Client

	tx txState
	rx rxState

	// Current outgoing frame.
	dst     int
	payload []byte
	tries   int // carrier-sense attempts for the current round
	retries int // full handshake retries

	// Generation counters invalidate stale scheduled callbacks: every
	// state change bumps the side's generation, and callbacks carry the
	// value they were scheduled with.
	txGen, rxGen uint64

	rxPeer int

	// airingUntil is the end time of this MAC's own transmissions, used
	// for half-duplex reception checks.
	airingUntil uint64

	// staged buffers callbacks created while the network is in a staging
	// section (concurrent node execution); only this MAC's node writes it,
	// and the scheduler drains it at the section barrier via CommitStaged.
	staged []stagedEvent

	// Hot callbacks, bound once at registration: method values allocate a
	// closure per binding, and these fire on every frame exchange.
	backoffDoneFn, handshakeFailedFn, finishOKFn  func(uint64)
	sendCTSFn, sendDataFn, sendACKFn, releaseRxFn func(uint64)

	// Stats, readable by tests and experiments.
	Sent, Delivered, Failed, Rejected int
}

// bind creates the MAC's reusable callback values. Called once by NewMAC.
func (m *MAC) bind() {
	m.backoffDoneFn = m.backoffDone
	m.handshakeFailedFn = m.handshakeFailed
	m.finishOKFn = func(uint64) { m.finish(txOK) }
	m.sendCTSFn = m.sendCTS
	m.sendDataFn = m.sendData
	m.sendACKFn = m.sendACK
	m.releaseRxFn = m.releaseRx
}

// SetClient wires the radio front end above the MAC.
func (m *MAC) SetClient(c Client) { m.client = c }

// ID returns the node ID the MAC belongs to.
func (m *MAC) ID() int { return m.id }

func (m *MAC) init() {
	if m.tx == 0 {
		m.tx = txIdle
	}
	if m.rx == 0 {
		m.rx = rxIdle
	}
}

// Busy implements dev.Transceiver: true while a send exchange is in
// progress. This is the paper's software busy flag — it covers the whole
// backoff/RTS/CTS/DATA/ACK window of the node's own transmission and is
// deliberately blind to receive-side activity.
func (m *MAC) Busy(now uint64) bool {
	m.init()
	return m.tx != txIdle
}

// Submit implements dev.Transceiver. It returns false (reject) when the
// transmit path is busy. For unicast it runs the full CSMA +
// RTS/CTS/DATA/ACK exchange; for Broadcast it airs the frame once with
// carrier sense only.
func (m *MAC) Submit(now uint64, dst int, payload []byte) bool {
	m.init()
	if m.tx != txIdle {
		m.Rejected++
		return false
	}
	m.Sent++
	m.dst = dst
	m.payload = payload
	m.tries = 0
	m.retries = 0
	m.enterBackoff(now)
	return true
}

// afterTx schedules fn unless the transmit side has moved on by then.
// During a staging section the callback is buffered on this MAC instead of
// the shared queue (the delay is at least MinSubmitDelay there, so it can
// never come due before the section's barrier).
func (m *MAC) afterTx(now, delay uint64, fn func(now uint64)) {
	if m.net.staging {
		m.staged = append(m.staged, stagedEvent{
			submitAt: now, at: now + delay, guard: &m.txGen, gen: m.txGen, fn: fn,
		})
		return
	}
	m.net.scheduleGuarded(now+delay, &m.txGen, m.txGen, fn)
}

// afterRx schedules fn unless the receive side has moved on by then.
func (m *MAC) afterRx(now, delay uint64, fn func(now uint64)) {
	if m.net.staging {
		m.staged = append(m.staged, stagedEvent{
			submitAt: now, at: now + delay, guard: &m.rxGen, gen: m.rxGen, fn: fn,
		})
		return
	}
	m.net.scheduleGuarded(now+delay, &m.rxGen, m.rxGen, fn)
}

func (m *MAC) setTx(s txState) {
	m.tx = s
	m.txGen++
}

func (m *MAC) setRx(s rxState) {
	m.rx = s
	m.rxGen++
}

func (m *MAC) enterBackoff(now uint64) {
	m.setTx(txBackoff)
	slots := uint64(m.rng.Intn(BackoffWindow) + 1)
	m.afterTx(now, slots*BackoffSlot, m.backoffDoneFn)
}

func (m *MAC) backoffDone(now uint64) {
	if m.net.carrierBusyAt(m, now) || m.airingUntil > now {
		m.tries++
		if m.tries >= MaxCSMATries {
			m.finish(txNoAck)
			return
		}
		m.enterBackoff(now)
		return
	}
	if m.dst == Broadcast {
		m.setTx(txBcast)
		tx := m.airOwn(now, frame{kind: frameData, src: m.id, dst: Broadcast, payload: m.payload})
		m.afterTx(now, tx.end-now, m.finishOKFn)
		return
	}
	m.setTx(txWaitCTS)
	rts := m.airOwn(now, frame{kind: frameRTS, src: m.id, dst: m.dst})
	timeout := (rts.end - now) + TurnaroundGap + ControlBytes*CyclesPerByte + TimeoutSlack
	m.afterTx(now, timeout, m.handshakeFailedFn)
}

func (m *MAC) handshakeFailed(now uint64) {
	m.retries++
	if m.retries > MaxRetries {
		m.finish(txNoAck)
		return
	}
	m.tries = 0
	m.enterBackoff(now)
}

func (m *MAC) finish(status uint8) {
	m.setTx(txIdle)
	if status == txOK {
		m.Delivered++
	} else {
		m.Failed++
	}
	if m.client != nil {
		m.client.OnTxDone(status)
	}
}

// airOwn airs a frame from this MAC and records the half-duplex window.
func (m *MAC) airOwn(now uint64, f frame) *transmission {
	tx := m.net.air(m, now, f)
	if tx.end > m.airingUntil {
		m.airingUntil = tx.end
	}
	return tx
}

// onFrame handles an intact frame addressed to this node (or a broadcast).
func (m *MAC) onFrame(now uint64, f frame) {
	m.init()
	switch f.kind {
	case frameRTS:
		if m.rx != rxIdle {
			return // one reservation at a time
		}
		m.setRx(rxReserved)
		m.rxPeer = f.src
		m.afterRx(now, TurnaroundGap, m.sendCTSFn)
		// If DATA never comes, release the reservation.
		m.afterRx(now, ReserveTimeout, m.releaseRxFn)
	case frameCTS:
		if m.tx != txWaitCTS || f.src != m.dst {
			return
		}
		m.setTx(txSendingData)
		m.afterTx(now, TurnaroundGap, m.sendDataFn)
	case frameData:
		if f.dst == Broadcast {
			m.deliver(now, f)
			return
		}
		if m.rx == rxAcking {
			return // still acknowledging the previous frame
		}
		// Accept DATA whether or not we granted an RTS (the sender may
		// have retried past our reservation timeout).
		m.deliver(now, f)
		m.rxPeer = f.src
		m.setRx(rxAcking)
		m.afterRx(now, TurnaroundGap, m.sendACKFn)
	case frameACK:
		if m.tx != txWaitACK || f.src != m.dst {
			return
		}
		m.finish(txOK)
	}
}

// sendCTS grants the reservation to the peer recorded at RTS time.
func (m *MAC) sendCTS(at uint64) {
	m.airOwn(at, frame{kind: frameCTS, src: m.id, dst: m.rxPeer})
}

// sendData airs the DATA frame after the post-CTS turnaround and arms the
// ACK timeout.
func (m *MAC) sendData(at uint64) {
	tx := m.airOwn(at, frame{kind: frameData, src: m.id, dst: m.dst, payload: m.payload})
	m.setTx(txWaitACK)
	timeout := (tx.end - at) + TurnaroundGap + ControlBytes*CyclesPerByte + TimeoutSlack
	m.afterTx(at, timeout, m.handshakeFailedFn)
}

// sendACK acknowledges the DATA frame just delivered and returns the
// receive side to idle once the ACK leaves the air. rxPeer cannot change
// underneath the pending callback: only an RTS on an idle receive side
// rewrites it, and the side stays rxAcking until releaseRx fires.
func (m *MAC) sendACK(at uint64) {
	tx := m.airOwn(at, frame{kind: frameACK, src: m.id, dst: m.rxPeer})
	m.afterRx(at, tx.end-at, m.releaseRxFn)
}

func (m *MAC) releaseRx(uint64) { m.setRx(rxIdle) }

func (m *MAC) deliver(now uint64, f frame) {
	payload := make([]byte, len(f.payload))
	copy(payload, f.payload)
	m.net.deliveries = append(m.net.deliveries, Delivery{
		Cycle: now, Src: f.src, Dst: f.dst, Payload: payload,
	})
	if m.client != nil {
		m.client.OnReceive(f.src, payload)
	}
}
