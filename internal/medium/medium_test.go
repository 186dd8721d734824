package medium

import (
	"testing"

	"sentomist/internal/randx"
)

// fakeClient records MAC callbacks.
type fakeClient struct {
	txDone []uint8
	rx     []struct {
		src     int
		payload []byte
	}
}

func (c *fakeClient) OnTxDone(status uint8) { c.txDone = append(c.txDone, status) }
func (c *fakeClient) OnReceive(src int, payload []byte) {
	p := append([]byte(nil), payload...)
	c.rx = append(c.rx, struct {
		src     int
		payload []byte
	}{src, p})
}

// pair builds a two-node network with a symmetric link of the given loss.
func pair(t *testing.T, loss float64) (*Network, *MAC, *MAC, *fakeClient, *fakeClient) {
	t.Helper()
	net := NewNetwork(randx.New(42))
	a := net.NewMAC(1)
	b := net.NewMAC(2)
	ca, cb := &fakeClient{}, &fakeClient{}
	a.SetClient(ca)
	b.SetClient(cb)
	net.AddSymmetricLink(1, 2, loss)
	return net, a, b, ca, cb
}

func TestUnicastHandshakeDelivers(t *testing.T) {
	net, a, _, ca, cb := pair(t, 0)
	if !a.Submit(0, 2, []byte{5, 6, 7}) {
		t.Fatal("submit rejected on idle MAC")
	}
	if !a.Busy(0) {
		t.Fatal("MAC not busy after submit")
	}
	net.Advance(1_000_000)
	if len(cb.rx) != 1 {
		t.Fatalf("receiver got %d frames", len(cb.rx))
	}
	if got := cb.rx[0]; got.src != 1 || len(got.payload) != 3 || got.payload[0] != 5 {
		t.Fatalf("delivered %+v", got)
	}
	if len(ca.txDone) != 1 || ca.txDone[0] != txOK {
		t.Fatalf("sender txDone %v", ca.txDone)
	}
	if a.Busy(1_000_000) {
		t.Fatal("MAC still busy after completion")
	}
	if len(net.Deliveries()) != 1 {
		t.Fatalf("delivery log has %d entries", len(net.Deliveries()))
	}
}

func TestSubmitWhileBusyRejected(t *testing.T) {
	net, a, _, ca, _ := pair(t, 0)
	if !a.Submit(0, 2, []byte{1}) {
		t.Fatal("first submit rejected")
	}
	if a.Submit(10, 2, []byte{2}) {
		t.Fatal("second submit accepted while busy")
	}
	if a.Rejected != 1 {
		t.Fatalf("Rejected = %d", a.Rejected)
	}
	net.Advance(1_000_000)
	if len(ca.txDone) != 1 {
		t.Fatalf("txDone count %d: the rejected frame must produce no completion", len(ca.txDone))
	}
}

func TestBusyWindowCoversWholeExchange(t *testing.T) {
	// The paper's central Case-II property: the busy flag spans
	// backoff + RTS + CTS + DATA + ACK. Sample it densely.
	net, a, _, ca, _ := pair(t, 0)
	a.Submit(0, 2, make([]byte, 12))
	var lastBusy uint64
	for now := uint64(0); now < 200_000; now += 100 {
		net.Advance(now)
		if a.Busy(now) {
			lastBusy = now
		}
		if len(ca.txDone) > 0 {
			break
		}
	}
	if len(ca.txDone) == 0 {
		t.Fatal("send never completed")
	}
	// Minimum span: RTS + CTS + DATA + ACK airtimes.
	minSpan := uint64(3*ControlBytes*CyclesPerByte + (FrameOverhead+12)*CyclesPerByte)
	if lastBusy < minSpan {
		t.Fatalf("busy window ended at %d, want at least %d", lastBusy, minSpan)
	}
}

func TestLossyLinkGivesNoAck(t *testing.T) {
	net, a, _, ca, cb := pair(t, 1.0) // every frame lost
	a.Submit(0, 2, []byte{1})
	net.Advance(10_000_000)
	if len(cb.rx) != 0 {
		t.Fatal("frame delivered over a fully lossy link")
	}
	if len(ca.txDone) != 1 || ca.txDone[0] != txNoAck {
		t.Fatalf("txDone %v, want one NoAck", ca.txDone)
	}
	if a.Failed != 1 {
		t.Fatalf("Failed = %d", a.Failed)
	}
}

func TestNoLinkMeansNoDelivery(t *testing.T) {
	net := NewNetwork(randx.New(1))
	a := net.NewMAC(1)
	net.NewMAC(2)
	ca := &fakeClient{}
	a.SetClient(ca)
	// No links at all.
	a.Submit(0, 2, []byte{1})
	net.Advance(10_000_000)
	if len(ca.txDone) != 1 || ca.txDone[0] != txNoAck {
		t.Fatalf("txDone %v", ca.txDone)
	}
}

func TestBroadcastReachesAllNeighbours(t *testing.T) {
	net := NewNetwork(randx.New(3))
	a := net.NewMAC(1)
	clients := map[int]*fakeClient{}
	for id := 2; id <= 4; id++ {
		m := net.NewMAC(id)
		c := &fakeClient{}
		m.SetClient(c)
		clients[id] = c
		net.AddSymmetricLink(1, id, 0)
	}
	ca := &fakeClient{}
	a.SetClient(ca)
	a.Submit(0, Broadcast, []byte{9})
	net.Advance(1_000_000)
	for id, c := range clients {
		if len(c.rx) != 1 {
			t.Errorf("node %d got %d broadcast frames", id, len(c.rx))
		}
	}
	if len(ca.txDone) != 1 || ca.txDone[0] != txOK {
		t.Fatalf("broadcast txDone %v", ca.txDone)
	}
}

func TestBroadcastHasNoHandshake(t *testing.T) {
	net, a, _, ca, _ := pair(t, 0)
	a.Submit(0, Broadcast, []byte{1, 2})
	net.Advance(1_000_000)
	if len(ca.txDone) != 1 {
		t.Fatal("no completion")
	}
	// Only the DATA frame should have been aired: control frames would
	// have produced more transmissions in the log... check via counts.
	if a.Delivered != 1 {
		t.Fatalf("Delivered = %d", a.Delivered)
	}
}

// TestReceiveWhileTxBusy is the paper's Case-II enabler: a node mid-send
// (software busy flag set) still receives and acknowledges an incoming
// frame between its own frames.
func TestReceiveWhileTxBusy(t *testing.T) {
	net := NewNetwork(randx.New(7))
	relay := net.NewMAC(1)
	sink := net.NewMAC(0)
	src := net.NewMAC(2)
	cRelay, cSink, cSrc := &fakeClient{}, &fakeClient{}, &fakeClient{}
	relay.SetClient(cRelay)
	sink.SetClient(cSink)
	src.SetClient(cSrc)
	net.AddSymmetricLink(1, 0, 0)
	net.AddSymmetricLink(2, 1, 0)

	// The relay starts a forward to the sink: its transmit-side busy
	// flag goes up for the whole exchange. A DATA frame arriving inside
	// that window must still be decoded and delivered — the receive path
	// is independent of the software busy flag.
	relay.Submit(0, 0, make([]byte, 24))
	if !relay.Busy(5) {
		t.Fatal("relay not busy after submit")
	}
	relay.onFrame(10, frame{kind: frameData, src: 2, dst: 1, payload: []byte{42}})
	if len(cRelay.rx) != 1 {
		t.Fatalf("relay got %d frames while TX-busy, want 1", len(cRelay.rx))
	}
	if cRelay.rx[0].payload[0] != 42 {
		t.Fatalf("relay payload %v", cRelay.rx[0].payload)
	}
	net.Advance(30_000_000)
	if len(cRelay.txDone) != 1 {
		t.Fatalf("relay txDone %v, want exactly one completion", cRelay.txDone)
	}
	_ = cSink
	_ = cSrc
	_ = src
}

func TestCollisionCorruptsOverlap(t *testing.T) {
	// Two hidden senders (no link between them) transmit to the same
	// receiver at the same instant: both frames overlap and are lost,
	// and the senders exhaust retries.
	net := NewNetwork(randx.New(5))
	a := net.NewMAC(1)
	b := net.NewMAC(2)
	r := net.NewMAC(3)
	ca, cb, cr := &fakeClient{}, &fakeClient{}, &fakeClient{}
	a.SetClient(ca)
	b.SetClient(cb)
	r.SetClient(cr)
	net.AddSymmetricLink(1, 3, 0)
	net.AddSymmetricLink(2, 3, 0)

	// Air raw frames simultaneously, bypassing CSMA (hidden terminals
	// cannot hear each other anyway).
	net.air(net.mac(1), 0, frame{kind: frameData, src: 1, dst: 3, payload: []byte{1}})
	net.air(net.mac(2), 10, frame{kind: frameData, src: 2, dst: 3, payload: []byte{2}})
	net.Advance(1_000_000)
	if len(cr.rx) != 0 {
		t.Fatalf("receiver decoded %d frames out of a collision", len(cr.rx))
	}
}

func TestCarrierSense(t *testing.T) {
	net := NewNetwork(randx.New(6))
	net.NewMAC(1)
	net.NewMAC(2)
	net.AddSymmetricLink(1, 2, 0)
	tx := net.air(net.mac(1), 100, frame{kind: frameData, src: 1, dst: 2, payload: []byte{1, 2, 3}})
	if !net.carrierBusyAt(net.mac(2), 200) {
		t.Fatal("receiver does not sense the ongoing transmission")
	}
	if net.carrierBusyAt(net.mac(1), 200) {
		t.Fatal("sender senses its own transmission as foreign")
	}
	if net.carrierBusyAt(net.mac(2), tx.end+1) {
		t.Fatal("carrier busy after the transmission ended")
	}
}

func TestCSMADefersToOngoingTraffic(t *testing.T) {
	// A sender must not start its RTS while a foreign frame is on the
	// air to it; it backs off and retries. We verify the exchange still
	// completes after the channel clears.
	net, a, _, ca, _ := pair(t, 0)
	// Occupy the channel with a long foreign transmission from node 2.
	net.air(net.mac(2), 0, frame{kind: frameData, src: 2, dst: 1, payload: make([]byte, 30)})
	a.Submit(0, 2, []byte{1})
	net.Advance(10_000_000)
	if len(ca.txDone) != 1 || ca.txDone[0] != txOK {
		t.Fatalf("txDone %v", ca.txDone)
	}
}

func TestDuplicateMACPanics(t *testing.T) {
	net := NewNetwork(randx.New(1))
	net.NewMAC(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate MAC did not panic")
		}
	}()
	net.NewMAC(1)
}

func TestRTSWhileReservedIgnored(t *testing.T) {
	// Receiver grants one reservation at a time: a second RTS during an
	// open reservation gets no CTS; the second sender retries and
	// eventually succeeds.
	net := NewNetwork(randx.New(8))
	r := net.NewMAC(0)
	a := net.NewMAC(1)
	b := net.NewMAC(2)
	cr, caC, cbC := &fakeClient{}, &fakeClient{}, &fakeClient{}
	r.SetClient(cr)
	a.SetClient(caC)
	b.SetClient(cbC)
	net.AddSymmetricLink(0, 1, 0)
	net.AddSymmetricLink(0, 2, 0)
	net.AddSymmetricLink(1, 2, 0)
	a.Submit(0, 0, []byte{1})
	b.Submit(0, 0, []byte{2})
	net.Advance(30_000_000)
	// The reservation loser contends with the winner's whole exchange;
	// depending on backoff draws it either lands its frame afterwards or
	// exhausts its carrier-sense budget (NoAck), exactly like a busy
	// real-world channel. At least one frame must get through, and both
	// senders must see exactly one completion.
	if len(cr.rx) == 0 {
		t.Fatal("receiver got no frames at all")
	}
	if len(caC.txDone) != 1 || len(cbC.txDone) != 1 {
		t.Fatalf("txDone a=%v b=%v, want one completion each", caC.txDone, cbC.txDone)
	}
	if caC.txDone[0] != txOK && cbC.txDone[0] != txOK {
		t.Fatal("neither sender succeeded")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Delivery {
		net := NewNetwork(randx.New(99))
		a := net.NewMAC(1)
		b := net.NewMAC(2)
		a.SetClient(&fakeClient{})
		b.SetClient(&fakeClient{})
		net.AddSymmetricLink(1, 2, 0.3)
		for i := uint64(0); i < 5; i++ {
			net.Advance(i * 300_000)
			if !a.Busy(i * 300_000) {
				a.Submit(i*300_000, 2, []byte{byte(i)})
			}
		}
		net.Advance(10_000_000)
		return net.Deliveries()
	}
	d1, d2 := run(), run()
	if len(d1) != len(d2) {
		t.Fatalf("replay diverged: %d vs %d deliveries", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].Cycle != d2[i].Cycle || d1[i].Src != d2[i].Src {
			t.Fatalf("replay diverged at delivery %d", i)
		}
	}
}

func TestFrameAirtime(t *testing.T) {
	data := frame{kind: frameData, payload: make([]byte, 10)}
	if got := data.airtime(); got != uint64(FrameOverhead+10)*CyclesPerByte {
		t.Fatalf("data airtime %d", got)
	}
	rts := frame{kind: frameRTS}
	if got := rts.airtime(); got != ControlBytes*CyclesPerByte {
		t.Fatalf("control airtime %d", got)
	}
}
