package medium

import (
	"testing"

	"sentomist/internal/randx"
)

// TestReservationTimeoutReleases: a receiver that granted an RTS but never
// got the DATA must release its reservation and serve later senders.
func TestReservationTimeoutReleases(t *testing.T) {
	net := NewNetwork(randx.New(21))
	r := net.NewMAC(0)
	cr := &fakeClient{}
	r.SetClient(cr)
	net.NewMAC(1) // the ghost sender (we drive frames by hand)
	net.AddSymmetricLink(0, 1, 0)

	// Hand the receiver an RTS directly; no DATA will follow.
	r.onFrame(100, frame{kind: frameRTS, src: 1, dst: 0})
	if r.rx != rxReserved {
		t.Fatalf("rx state %d, want reserved", r.rx)
	}
	net.Advance(100 + ReserveTimeout + 1000)
	if r.rx != rxIdle {
		t.Fatalf("reservation not released: state %d", r.rx)
	}
	// A later DATA frame is still accepted.
	r.onFrame(200_000, frame{kind: frameData, src: 1, dst: 0, payload: []byte{7}})
	if len(cr.rx) != 1 {
		t.Fatal("post-timeout delivery failed")
	}
}

// TestSecondRTSAfterReservationExpiryGranted: the reservation is per-peer
// state; once it times out another sender's RTS gets a CTS.
func TestSecondRTSAfterReservationExpiryGranted(t *testing.T) {
	net := NewNetwork(randx.New(22))
	r := net.NewMAC(0)
	r.SetClient(&fakeClient{})
	a := net.NewMAC(1)
	ca := &fakeClient{}
	a.SetClient(ca)
	net.NewMAC(2)
	net.AddSymmetricLink(0, 1, 0)
	net.AddSymmetricLink(0, 2, 0)

	// Ghost RTS from node 2 reserves the receiver.
	r.onFrame(0, frame{kind: frameRTS, src: 2, dst: 0})
	// Node 1 submits a real send; its first RTS is ignored while the
	// reservation is open, but it retries and succeeds afterwards.
	a.Submit(0, 0, []byte{42})
	net.Advance(30_000_000)
	if len(ca.txDone) != 1 || ca.txDone[0] != txOK {
		t.Fatalf("txDone %v", ca.txDone)
	}
}

// TestAirPruneKeepsCollisionWindow: a finished transmission must stay
// visible long enough for late overlap checks, then be pruned.
func TestAirPruneKeepsCollisionWindow(t *testing.T) {
	net := NewNetwork(randx.New(23))
	net.NewMAC(1)
	net.NewMAC(2)
	net.AddSymmetricLink(1, 2, 0)
	tx := net.air(net.mac(1), 0, frame{kind: frameData, src: 1, dst: 2, payload: []byte{1}})
	net.Advance(tx.end + 1)
	if len(net.onAir) == 0 {
		t.Fatal("transmission pruned inside its collision window")
	}
	net.Advance(tx.end * 3)
	if len(net.onAir) != 0 {
		t.Fatalf("stale transmissions kept: %d", len(net.onAir))
	}
}

// TestCTSFromWrongPeerIgnored: a CTS from someone other than the intended
// destination must not advance the sender's exchange.
func TestCTSFromWrongPeerIgnored(t *testing.T) {
	net := NewNetwork(randx.New(24))
	a := net.NewMAC(1)
	a.SetClient(&fakeClient{})
	net.NewMAC(2)
	net.NewMAC(3)
	net.AddSymmetricLink(1, 2, 0)
	net.AddSymmetricLink(1, 3, 0)
	a.Submit(0, 2, []byte{1})
	// Force the sender into the waiting state, then deliver a stray CTS.
	net.Advance(BackoffWindow*BackoffSlot + 1)
	if a.tx == txWaitCTS {
		a.onFrame(net.now, frame{kind: frameCTS, src: 3, dst: 1})
		if a.tx != txWaitCTS {
			t.Fatal("stray CTS advanced the exchange")
		}
	}
	net.Advance(30_000_000)
}

// TestACKFromWrongPeerIgnored mirrors the CTS check for the ACK stage.
func TestACKFromWrongPeerIgnored(t *testing.T) {
	net := NewNetwork(randx.New(25))
	a := net.NewMAC(1)
	ca := &fakeClient{}
	a.SetClient(ca)
	b := net.NewMAC(2)
	b.SetClient(&fakeClient{})
	net.NewMAC(3)
	net.AddSymmetricLink(1, 2, 0)
	net.AddSymmetricLink(1, 3, 0)
	a.Submit(0, 2, []byte{1})
	// Walk the exchange until the sender awaits its ACK, then inject a
	// stray one from node 3.
	for now := uint64(0); now < 60_000; now += 500 {
		net.Advance(now)
		if a.tx == txWaitACK {
			a.onFrame(now, frame{kind: frameACK, src: 3, dst: 1})
			if a.tx != txWaitACK {
				t.Fatal("stray ACK completed the exchange")
			}
			break
		}
	}
	net.Advance(30_000_000)
	if len(ca.txDone) != 1 || ca.txDone[0] != txOK {
		t.Fatalf("legitimate exchange broken: %v", ca.txDone)
	}
}

// TestLinkTableFollowsRegistration: links may be declared before or after
// their MACs register and before or after the dense table is built. The
// table is sized by the registered MACs, so a link to an ID without a MAC
// leaves it untouched until that MAC registers.
func TestLinkTableFollowsRegistration(t *testing.T) {
	net := NewNetwork(randx.New(3))
	net.AddLink(1, 2, 0.25)
	a := net.NewMAC(1)
	b := net.NewMAC(2)
	at := func(src, dst *MAC) link { return net.row(src)[dst.idx] }
	if got := at(a, b); got != (link{0.25, true}) {
		t.Errorf("link declared before registration = %+v", got)
	}
	net.AddLink(2, 1, 0.5)
	net.AddLink(1, 1000, 0.125)
	net.AddLink(-4, 1, 0)
	for _, tc := range []struct {
		src, dst *MAC
		want     link
	}{{a, b, link{0.25, true}}, {b, a, link{0.5, true}}, {a, a, link{}}, {b, b, link{}}} {
		if got := at(tc.src, tc.dst); got != tc.want {
			t.Errorf("link %d->%d = %+v, want %+v", tc.src.id, tc.dst.id, got, tc.want)
		}
	}
	if len(net.links) != 4 {
		t.Fatalf("link table has %d entries for 2 MACs, want 4", len(net.links))
	}
	c := net.NewMAC(1000)
	if got := at(a, c); got != (link{0.125, true}) {
		t.Errorf("link to a later MAC = %+v", got)
	}
	if len(net.links) != 9 {
		t.Fatalf("link table has %d entries for 3 MACs, want 9", len(net.links))
	}
	if got := at(c, a); got.audible {
		t.Errorf("undeclared reverse link audible: %+v", got)
	}
	if got := at(b, a); got != (link{0.5, true}) {
		t.Errorf("link declared after the table was built = %+v", got)
	}
}
