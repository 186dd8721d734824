package apps

import (
	"fmt"

	"sentomist/internal/trace"
)

// Case III — the paper's Section VI-D: an event-detection WSN where a
// CTP-style collection protocol coexists with a heartbeat protocol on the
// same radio. Nine nodes form a two-level tree rooted at node 0; four leaf
// nodes are sources that report readings toward the root during random
// activity windows, every node broadcasts a heartbeat every 500 ms, and the
// two protocols race for the radio.
//
// The bug is the paper's unhandled failure: the collection send path marks
// its protocol-level busy flag, submits to the radio, and does not handle
// the case where the MAC rejects the submission because the heartbeat is
// mid-air. No send-done ever comes for a rejected submission, so the flag
// is never cleared and the node's collection protocol hangs — every later
// report is silently skipped.
//
// All eight non-root nodes run the identical binary; per-node role (parent,
// source flag, LFSR seed) comes from a RAM-resident configuration block,
// exactly like TOS_NODE_ID-style post-compile configuration, so instruction
// counters remain comparable across nodes.

// CTPRootID is the collection root. Nodes 1 and 2 are relays; 3..8 are
// leaves, of which CTPSources are reporting sources.
const CTPRootID = 0

// CTPSources lists the monitored source nodes (the paper monitors the
// report timer on 4 sensors).
var CTPSources = []int{3, 5, 6, 8}

// Task IDs of the case-III program.
const (
	ctpTaskSend = 0
	ctpTaskHb   = 1
	ctpTaskFwd  = 2
)

// ctpNodeSource is the program of every non-root node.
func ctpNodeSource(buggy bool) string {
	// The failure path mirrors real CTP's send-fail handling: it polls
	// the radio state a few times, degrades the link estimate, and
	// records the failure. The buggy variant does everything EXCEPT
	// releasing the protocol busy flag — no send-done will ever come for
	// a rejected submission, so collection hangs from here on.
	failTail := `
cst_fail:
	push r2
	ldi  r2, 4              ; re-poll the radio state (retry probe)
cf_poll:
	in   r0, STATUS
	andi r0, ST_BUSY
	breq cf_free
	dec  r2
	brne cf_poll
cf_free:
	lds  r0, linkest        ; degrade the link estimate
	shr  r0
	addi r0, 8
	sts  linkest, r0
	lds  r0, failcnt
	inc  r0
	sts  failcnt, r0
	lds  r0, seq            ; roll the sequence number back: the reading
	dec  r0                 ; was never handed to the radio
	sts  seq, r0
	pop  r2
	ret
`
	if !buggy {
		failTail = `
cst_fail:
	push r2
	ldi  r2, 4
cf_poll:
	in   r0, STATUS
	andi r0, ST_BUSY
	breq cf_free
	dec  r2
	brne cf_poll
cf_free:
	lds  r0, linkest
	shr  r0
	addi r0, 8
	sts  linkest, r0
	lds  r0, failcnt
	inc  r0
	sts  failcnt, r0
	lds  r0, seq
	dec  r0
	sts  seq, r0
	ldi  r0, 0              ; fixed: release the protocol busy flag so the
	sts  ctpBusy, r0        ; next report timer retries the send.
	pop  r2
	ret
`
	}
	return prelude + fmt.Sprintf(`
; RAM configuration block (written by the deployment tool before boot).
.var nodeid
.var parent
.var issrc
.var lfsr

.var ctpBusy
.var cursend                ; 1 = collection send in flight, 2 = heartbeat
.var activeleft
.var seq
.var fwdbuf, 16
.var fwdlen
.var linkest
.var sentcnt
.var failcnt
.var skipcnt
.var fwddrop
.var hbrej

.vector 1, report_isr
.vector 2, hb_isr
.vector 4, rx_isr
.vector 5, txdone_isr
.task 0, ctp_send_task
.task 1, hb_task
.task 2, ctp_fwd_task
.entry boot

boot:
	ldi  r0, 0
	sts  ctpBusy, r0
	sts  cursend, r0
	sts  activeleft, r0
	sts  seq, r0
	; Report timer: 40960 << 4 cycles = ~655 ms.
	ldi  r0, 0x00
	out  T0_LO, r0
	ldi  r0, 0xa0
	out  T0_HI, r0
	ldi  r0, 4
	out  T0_PRE, r0
	; Heartbeat timer: 31250 << 4 cycles = 500 ms exactly.
	ldi  r0, 0x12
	out  T1_LO, r0
	ldi  r0, 0x7a
	out  T1_HI, r0
	ldi  r0, 4
	out  T1_PRE, r0
	ldi  r0, 1
	out  T0_CTRL, r0
	out  T1_CTRL, r0
	sei
	osrun

; Advance the Galois LFSR; result in r0.
lfsr_step:
	lds  r0, lfsr
	shr  r0
	brcc lfsr_store
	xori r0, 0xb8
lfsr_store:
	sts  lfsr, r0
	ret

; Report timer: the monitored event procedure. Sources report while an
; activity window is open; windows open at random and last 4..11 ticks
; (the paper's "event of interest lasts for a random interval"). Each tick
; re-arms the timer with a little LFSR jitter — the oscillator skew that
; lets independently booted nodes drift against each other.
report_isr:
	push r0
	call lfsr_step
	andi r0, 15
	addi r0, 0xa0
	out  T0_HI, r0
	lds  r0, issrc
	cpi  r0, 0
	breq rt_done
	lds  r0, activeleft
	cpi  r0, 0
	breq rt_idle
	dec  r0
	sts  activeleft, r0
	post 0
	jmp  rt_done
rt_idle:
	call lfsr_step
	andi r0, 3
	brne rt_done
	lds  r0, lfsr
	shr  r0
	shr  r0
	andi r0, 7
	addi r0, 4
	sts  activeleft, r0
rt_done:
	pop  r0
	reti

hb_isr:
	post 1
	reti

; Collection send: one reading toward the parent.
ctp_send_task:
	push r0
	push r1
	lds  r0, ctpBusy
	cpi  r0, 0
	brne cst_skip
	ldi  r0, 1
	sts  ctpBusy, r0        ; mark the collection path busy
	lds  r0, parent
	out  TX_DST, r0
	lds  r0, nodeid
	out  TX_FIFO, r0        ; origin
	lds  r0, seq
	inc  r0
	sts  seq, r0
	out  TX_FIFO, r0        ; sequence number
	call lfsr_step
	out  TX_FIFO, r0        ; reading
	out  TX_FIFO, r0
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
	in   r0, STATUS
	andi r0, ST_REJ
	brne cst_fail_pre
	ldi  r0, 1
	sts  cursend, r0        ; accepted: send-done will clear ctpBusy
	lds  r0, sentcnt
	inc  r0
	sts  sentcnt, r0
	jmp  cst_out
cst_fail_pre:
	call cst_fail
	jmp  cst_out
cst_skip:
	lds  r0, skipcnt        ; previous report still "in flight"
	inc  r0
	sts  skipcnt, r0
cst_out:
	pop  r1
	pop  r0
	ret
%s

; Heartbeat: broadcast a liveness beacon; rejection is harmless.
hb_task:
	push r0
	push r1
	ldi  r0, BCAST
	out  TX_DST, r0
	lds  r0, nodeid
	out  TX_FIFO, r0
	ldi  r1, 8              ; heartbeat payload filler (total 9: length >= 8 marks a heartbeat)
hb_pad:
	out  TX_FIFO, r0
	dec  r1
	brne hb_pad
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
	in   r0, STATUS
	andi r0, ST_REJ
	breq hb_ok
	lds  r0, hbrej
	inc  r0
	sts  hbrej, r0
	jmp  hb_out
hb_ok:
	ldi  r0, 2
	sts  cursend, r0
hb_out:
	pop  r1
	pop  r0
	ret

; Frame arrival: copy and defer forwarding toward the root (relays), or
; just consume (heartbeats from neighbours, readings at leaves).
rx_isr:
	push r0
	push r1
	push r2
	in   r0, RX_LEN
	cpi  r0, 8              ; heartbeats are long; data frames are short
	brcc rx_consume
	sts  fwdlen, r0
	ldi  r2, 0
rx_copy:
	lds  r1, fwdlen
	cp   r2, r1
	breq rx_fwd
	in   r1, RX_FIFO
	stx  fwdbuf, r2, r1
	inc  r2
	jmp  rx_copy
rx_fwd:
	post 2
	jmp  rx_out
rx_consume:
	cpi  r0, 0
	breq rx_out
	in   r1, RX_FIFO
	dec  r0
	jmp  rx_consume
rx_out:
	pop  r2
	pop  r1
	pop  r0
	reti

; Forward a child's reading toward the root, through the same collection
; send path (and the same unhandled-failure bug).
ctp_fwd_task:
	push r0
	push r1
	lds  r0, ctpBusy
	cpi  r0, 0
	brne cft_drop
	ldi  r0, 1
	sts  ctpBusy, r0
	lds  r0, parent
	out  TX_DST, r0
	ldi  r1, 0
cft_copy:
	lds  r0, fwdlen
	cp   r1, r0
	breq cft_send
	ldx  r0, fwdbuf, r1
	out  TX_FIFO, r0
	inc  r1
	jmp  cft_copy
cft_send:
	ldi  r0, CMD_SEND
	out  TX_CMD, r0
	in   r0, STATUS
	andi r0, ST_REJ
	brne cft_fail
	ldi  r0, 1
	sts  cursend, r0
	jmp  cft_out
cft_fail:
	call cst_fail
	jmp  cft_out
cft_drop:
	lds  r0, fwddrop        ; no queue: the forwarded reading is lost
	inc  r0
	sts  fwddrop, r0
cft_out:
	pop  r1
	pop  r0
	ret

; Send-done: clear the collection busy flag when the finished send was the
; collection protocol's.
txdone_isr:
	push r0
	lds  r0, cursend
	cpi  r0, 1
	brne td_clear
	ldi  r0, 0
	sts  ctpBusy, r0
td_clear:
	ldi  r0, 0
	sts  cursend, r0
	pop  r0
	reti
`, failTail)
}

// CTPConfig configures one Case-III testing run.
type CTPConfig struct {
	// Seconds is the run length (the paper: 15 s).
	Seconds float64
	// Seed drives all randomness.
	Seed uint64
	// Fixed selects the FAIL-handling variant.
	Fixed bool
	// engine selects a differential-testing oracle; the zero value is
	// the production engine.
	engine engine
	// Stream installs per-node streaming sinks; DiscardMarkers drops
	// markers from the materialized trace (see OscConfig).
	Stream         map[int]trace.StreamSink
	DiscardMarkers bool
}

// RunCTPHeartbeat executes one Case-III run: 9 nodes, two-level tree.
func RunCTPHeartbeat(cfg CTPConfig) (*Run, error) { return runCTPHeartbeat(cfg, 0.03) }

// runCTPHeartbeat is RunCTPHeartbeat with frame-loss probability loss on
// every link.
func runCTPHeartbeat(cfg CTPConfig, loss float64) (*Run, error) {
	prog, err := assembleCached(ctpNodeSource(!cfg.Fixed))
	if err != nil {
		return nil, fmt.Errorf("apps: ctp node: %w", err)
	}
	rootProg, err := assembleCached(oscSinkSource)
	if err != nil {
		return nil, fmt.Errorf("apps: ctp root: %w", err)
	}
	parents := map[int]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 2}
	isSource := make(map[int]bool, len(CTPSources))
	for _, id := range CTPSources {
		isSource[id] = true
	}

	b := newBuilder(cfg.Seed, cfg.engine)
	if _, err := b.addNode(CTPRootID, rootProg, nodeOpts{
		radio: true,
		sink:  cfg.Stream[CTPRootID], discard: cfg.DiscardMarkers,
	}); err != nil {
		return nil, err
	}
	cfgRNG := b.rng.Split(0xc0f)
	for id := 1; id <= 8; id++ {
		ram := map[uint16]uint8{
			prog.Vars["nodeid"]: uint8(id),
			prog.Vars["parent"]: uint8(parents[id]),
			prog.Vars["lfsr"]:   uint8(cfgRNG.Intn(255) + 1),
		}
		if isSource[id] {
			ram[prog.Vars["issrc"]] = 1
		}
		if _, err := b.addNode(id, prog, nodeOpts{
			timer0: true, timer1: true, radio: true, ramInit: ram,
			sink: cfg.Stream[id], discard: cfg.DiscardMarkers,
		}); err != nil {
			return nil, err
		}
	}
	// Two-level tree with intra-cluster audibility.
	cluster := func(ids []int) {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				b.net.AddSymmetricLink(ids[i], ids[j], loss)
			}
		}
	}
	cluster([]int{0, 1, 2})
	cluster([]int{1, 3, 4, 5})
	cluster([]int{2, 6, 7, 8})
	return b.execute(cfg.Seconds)
}
