package apps

import (
	"fmt"

	"sentomist/internal/trace"
)

// Case II — the paper's Section VI-C: a three-node multi-hop forwarding
// chain adapted from BlinkToRadio. Node 2 (source) injects packets at a
// randomized rate, node 1 (relay) forwards every received packet to node 0
// (sink). The relay's packet-arrival event procedure hands the packet
// straight to the send path; when the MAC's busy flag is still set from
// forwarding the previous packet, the send is rejected and the packet is
// actively dropped — the paper's improper-design bug ("the protocol should
// queue up a received packet and send it when the busy flag is cleared").
//
// Occasional back-to-back bursts from the source (its randomized schedule)
// land the second packet inside the relay's ~20 ms busy window, so only a
// handful of the ~200 forwarded packets hit the drop path.

// Node IDs of the case-II topology.
const (
	FwdSinkID   = 0
	FwdRelayID  = 1
	FwdSourceID = 2
)

// fwdPayloadLen is the forwarded payload size in bytes (seq + filler).
const fwdPayloadLen = 12

// fwdSourceSource is the traffic generator: a timer with a /2 software
// divider and an LFSR-jittered period (~74-107 ms between packets), plus a
// rare immediate resend from the send-done handler (a burst) that creates
// the short inter-arrival gaps the bug needs.
func fwdSourceSource(seed uint8, burstMask uint8) string {
	return prelude + fmt.Sprintf(`
.equ RELAY, %d
.var lfsr
.var seq
.var t0cnt

.vector 1, timer0_isr
.vector 5, txdone_isr
.entry boot

boot:
	ldi  r0, %d             ; LFSR seed (never zero)
	sts  lfsr, r0
	ldi  r0, 0
	sts  seq, r0
	sts  t0cnt, r0
	ldi  r0, 0x00
	out  T0_LO, r0
	ldi  r0, 0x98           ; initial period 0x9800 cycles (~39 ms)
	out  T0_HI, r0
	ldi  r0, 1
	out  T0_CTRL, r0
	sei
	osrun

; Advance the Galois LFSR in r0 (clobbers flags).
lfsr_step:
	lds  r0, lfsr
	shr  r0
	brcc lfsr_store
	xori r0, 0xb8
lfsr_store:
	sts  lfsr, r0
	ret

; Build and submit one packet to the relay. The payload length varies with
; the LFSR (%d..%d bytes), like real variable-size readings.
do_send:
	ldi  r0, RELAY
	out  TX_DST, r0
	lds  r1, lfsr
	andi r1, 7
	addi r1, %d             ; filler count
	lds  r0, seq
	inc  r0
	sts  seq, r0
	out  TX_FIFO, r0
pad_loop:
	out  TX_FIFO, r0
	dec  r1
	brne pad_loop
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
	ret

timer0_isr:
	push r0
	push r1
	call lfsr_step
	; Re-arm with a jittered period: high byte 0x90 + (lfsr & 0x1f).
	andi r0, 0x1f
	addi r0, 0x90
	out  T0_HI, r0
	lds  r0, t0cnt
	inc  r0
	sts  t0cnt, r0
	cpi  r0, 2              ; /2 divider: send every other fire
	brne t0_done
	ldi  r0, 0
	sts  t0cnt, r0
	call do_send
t0_done:
	pop  r1
	pop  r0
	reti

; Build and submit one short "alarm" packet (3 bytes): urgent readings ride
; right behind the previous packet.
do_send_burst:
	ldi  r0, RELAY
	out  TX_DST, r0
	lds  r0, seq
	inc  r0
	sts  seq, r0
	out  TX_FIFO, r0
	out  TX_FIFO, r0
	out  TX_FIFO, r0
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
	ret

; Send-done: occasionally fire a burst packet immediately.
txdone_isr:
	push r0
	push r1
	call lfsr_step
	andi r0, %d
	brne td_done
	call do_send_burst
td_done:
	pop  r1
	pop  r0
	reti
`, FwdRelayID, seed, fwdPayloadLen-3, fwdPayloadLen+4, fwdPayloadLen-4, burstMask)
}

// fwdRelaySource is the monitored node. The buggy variant submits the
// forward immediately and treats a rejection as a drop; the fixed variant
// parks the packet in a one-slot queue and retries from the send-done
// handler.
func fwdRelaySource(buggy bool) string {
	var forward, txdone string
	if buggy {
		forward = `
; Forward immediately; if the MAC is busy the send is rejected and the
; packet is actively dropped (the bug).
fwd_task:
	push r0
	push r1
	call load_fifo
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
	in   r0, STATUS
	andi r0, ST_REJ
	breq fwd_ok
fwd_drop:
	lds  r0, dropcnt        ; active drop: the packet is gone
	inc  r0
	sts  dropcnt, r0
fwd_ok:
	pop  r1
	pop  r0
	ret
`
		txdone = `
txdone_isr:
	reti
`
	} else {
		forward = `
; Fixed: when the MAC is busy, park the packet and send it on send-done.
fwd_task:
	push r0
	push r1
	in   r0, STATUS
	andi r0, ST_BUSY
	brne fwd_park
	call load_fifo
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
	jmp  fwd_out
fwd_park:
	ldi  r0, 1
	sts  parked, r0
fwd_out:
	pop  r1
	pop  r0
	ret
`
		txdone = `
txdone_isr:
	push r0
	push r1
	lds  r0, parked
	cpi  r0, 0
	breq td_done
	ldi  r0, 0
	sts  parked, r0
	call load_fifo
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
td_done:
	pop  r1
	pop  r0
	reti
`
	}
	return prelude + fmt.Sprintf(`
.equ SINK, %d
.var buf, %d
.var buflen
.var dropcnt
.var parked
.var fwdcnt

.vector 4, rx_isr
.vector 5, txdone_isr
.task 0, fwd_task
.entry boot

boot:
	ldi  r0, 0
	sts  dropcnt, r0
	sts  parked, r0
	sts  fwdcnt, r0
	sei
	osrun

; Packet-arrival event procedure (the paper's SPI interrupt handler):
; copy the frame out of the radio and defer the forward to a task.
rx_isr:
	push r0
	push r1
	push r2
	in   r0, RX_LEN
	sts  buflen, r0
	ldi  r2, 0
rx_chk:
	lds  r1, buflen
	cp   r2, r1
	breq rx_done
	in   r1, RX_FIFO
	stx  buf, r2, r1
	inc  r2
	jmp  rx_chk
rx_done:
	lds  r0, fwdcnt
	inc  r0
	sts  fwdcnt, r0
	post 0
	pop  r2
	pop  r1
	pop  r0
	reti

; Copy the buffered packet into the TX FIFO, addressed to the sink, behind
; a 4-byte forwarding header (origin, hop count, 16-bit relay counter).
load_fifo:
	ldi  r0, SINK
	out  TX_DST, r0
	in   r0, RX_SRC
	out  TX_FIFO, r0
	ldi  r0, 1
	out  TX_FIFO, r0
	lds  r0, fwdcnt
	out  TX_FIFO, r0
	ldi  r0, 0
	out  TX_FIFO, r0
	ldi  r1, 0
lf_loop:
	lds  r0, buflen
	cp   r1, r0
	breq lf_done
	ldx  r0, buf, r1
	out  TX_FIFO, r0
	inc  r1
	jmp  lf_loop
lf_done:
	ret
%s
%s
`, FwdSinkID, fwdPayloadLen+4, forward, txdone)
}

// ForwarderConfig configures one Case-II testing run.
type ForwarderConfig struct {
	// Seconds is the run length (the paper: 20 s).
	Seconds float64
	// Seed drives all randomness.
	Seed uint64
	// Fixed selects the queue-on-busy relay.
	Fixed bool
	// BurstMask controls burst frequency: a burst fires when
	// (lfsr & BurstMask) == 0. Zero selects the default of 0x1f
	// (roughly 1 burst per 32 packets).
	BurstMask uint8
	// engine selects a differential-testing oracle; the zero value is
	// the production engine.
	engine engine
	// Stream installs per-node streaming sinks; DiscardMarkers drops
	// markers from the materialized trace (see OscConfig).
	Stream         map[int]trace.StreamSink
	DiscardMarkers bool
}

// RunForwarder executes one Case-II run.
func RunForwarder(cfg ForwarderConfig) (*Run, error) {
	mask := cfg.BurstMask
	if mask == 0 {
		mask = 0x1f
	}
	srcProg, err := assembleCached(fwdSourceSource(0xA7, mask))
	if err != nil {
		return nil, fmt.Errorf("apps: forwarder source: %w", err)
	}
	relayProg, err := assembleCached(fwdRelaySource(!cfg.Fixed))
	if err != nil {
		return nil, fmt.Errorf("apps: forwarder relay: %w", err)
	}
	sinkProg, err := assembleCached(oscSinkSource)
	if err != nil {
		return nil, fmt.Errorf("apps: forwarder sink: %w", err)
	}

	b := newBuilder(cfg.Seed, cfg.engine)
	if _, err := b.addNode(FwdSinkID, sinkProg, nodeOpts{
		radio: true,
		sink:  cfg.Stream[FwdSinkID], discard: cfg.DiscardMarkers,
	}); err != nil {
		return nil, err
	}
	if _, err := b.addNode(FwdRelayID, relayProg, nodeOpts{
		radio: true,
		sink:  cfg.Stream[FwdRelayID], discard: cfg.DiscardMarkers,
	}); err != nil {
		return nil, err
	}
	if _, err := b.addNode(FwdSourceID, srcProg, nodeOpts{
		timer0: true, radio: true,
		sink: cfg.Stream[FwdSourceID], discard: cfg.DiscardMarkers,
	}); err != nil {
		return nil, err
	}
	// A chain: the source cannot hear the sink (hidden terminal).
	b.net.AddSymmetricLink(FwdSourceID, FwdRelayID, 0.03)
	b.net.AddSymmetricLink(FwdRelayID, FwdSinkID, 0.03)
	return b.execute(cfg.Seconds)
}
