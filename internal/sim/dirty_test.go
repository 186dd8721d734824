package sim

import (
	"fmt"
	"math"
	"testing"

	"sentomist/internal/asm"
	"sentomist/internal/dev"
	"sentomist/internal/medium"
	"sentomist/internal/node"
	"sentomist/internal/randx"
)

// chatterSource sends one frame to `dst` on every timer tick and drains
// every received frame. With `drain` cleared the RX handler returns without
// reading, so later frames take the radio's drop path.
const chatterSource = `
.var dst
.var drain
.var got
.vector 1, tick
.vector 4, rx
.vector 5, txdone
.entry boot
boot:
	sei
	osrun
tick:
	push r0
	lds r0, dst
	out 0x30, r0
	ldi r0, 42
	out 0x31, r0
	ldi r0, 1
	out 0x32, r0
	pop r0
	reti
rx:
	push r0
	lds r0, got
	inc r0
	sts got, r0
	lds r0, drain
	cpi r0, 0
	breq rxdone
rxd:
	in  r0, 0x35
	cpi r0, 0
	breq rxdone
	in  r0, 0x36
	jmp rxd
rxdone:
	pop r0
	reti
txdone:
	reti
`

// chatterNet builds five radio nodes on a lossy full mesh: four send
// unicast frames to a neighbour (so handshakes collide, retry and give up)
// and node 5 broadcasts; node 3 never drains its RX buffer.
func chatterNet(t *testing.T, seed uint64) ([]*node.Node, *medium.Network, []*dev.Radio, []*medium.MAC) {
	t.Helper()
	r, err := asm.String(chatterSource)
	if err != nil {
		t.Fatal(err)
	}
	net := medium.NewNetwork(randx.New(seed))
	periods := []uint16{9000, 7300, 11000, 8100, 13000}
	var (
		nodes  []*node.Node
		radios []*dev.Radio
		macs   []*medium.MAC
	)
	for i, period := range periods {
		id := i + 1
		dst, drain := uint8(id%4+1), uint8(1)
		if id == 5 {
			dst = medium.Broadcast
		}
		if id == 3 {
			drain = 0
		}
		nd, err := node.New(node.Config{ID: id, Program: r.Program, RAMInit: map[uint16]uint8{
			r.Vars["dst"]: dst, r.Vars["drain"]: drain,
		}})
		if err != nil {
			t.Fatal(err)
		}
		tm := dev.NewTimer(dev.IRQTimer0, nd, dev.PortT0Ctrl, dev.PortT0PeriodLo, dev.PortT0PeriodHi, dev.PortT0Prescale)
		tm.Out(dev.PortT0PeriodLo, uint8(period), 0)
		tm.Out(dev.PortT0PeriodHi, uint8(period>>8), 0)
		tm.Out(dev.PortT0Ctrl, 1, 0)
		nd.Attach(tm)
		radio := dev.NewRadio(nd)
		mac := net.NewMAC(id)
		radio.SetTransceiver(mac)
		mac.SetClient(radio)
		nd.Attach(radio)
		nodes, radios, macs = append(nodes, nd), append(radios, radio), append(macs, mac)
		for j := 1; j < id; j++ {
			net.AddSymmetricLink(j, id, 0.3)
		}
	}
	return nodes, net, radios, macs
}

// checkCaches asserts that every node's scheduler cache equals its live
// state and that the wake heap holds exactly the dormant nodes with a wake,
// in heap order.
func checkCaches(s *Sim) error {
	for i, nd := range s.nodes {
		wake := uint64(math.MaxUint64)
		if at, ok := nd.NextDeviceEvent(); ok {
			wake = at
		}
		if s.runnable[i] != nd.Runnable() || s.halted[i] != nd.Halted() || s.wake[i] != wake {
			return fmt.Errorf("node %d: cached runnable=%v halted=%v wake=%d, live %v %v %d",
				nd.ID, s.runnable[i], s.halted[i], s.wake[i], nd.Runnable(), nd.Halted(), wake)
		}
		want := !s.runnable[i] && wake != math.MaxUint64
		if got := s.heap.pos[i] >= 0; got != want {
			return fmt.Errorf("node %d: in wake heap %v, want %v", nd.ID, got, want)
		}
	}
	h := s.heap
	for p, i := range h.items {
		if h.pos[i] != p {
			return fmt.Errorf("wake heap: node index %d at %d, pos says %d", i, p, h.pos[i])
		}
		if p > 0 && h.less(p, (p-1)/2) {
			return fmt.Errorf("wake heap: order broken at %d", p)
		}
	}
	return nil
}

// TestCachesMatchLiveStateAcrossMediumEvents runs radio traffic in short
// Run slices and checks after every slice that the scheduler caches, which
// advanceNet does not refresh wholesale, are exact for every node.
func TestCachesMatchLiveStateAcrossMediumEvents(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nodes, net, radios, macs := chatterNet(t, 11)
			s := New(Config{Seed: 11, ParallelNodes: workers}, nodes, net)
			for until := uint64(0); until < 3_000_000; {
				until += 997
				if err := s.Run(until); err != nil {
					t.Fatal(err)
				}
				if err := checkCaches(s); err != nil {
					t.Fatalf("after Run(%d): %v", until, err)
				}
			}
			// The run must reach every callback path: deliveries, drops
			// and failed sends.
			var drops, failed int
			for i := range nodes {
				drops += radios[i].RxDropped()
				failed += macs[i].Failed
			}
			if len(net.Deliveries()) == 0 || drops == 0 || failed == 0 {
				t.Fatalf("deliveries %d, RX drops %d, failed sends %d: want all > 0",
					len(net.Deliveries()), drops, failed)
			}
		})
	}
}
