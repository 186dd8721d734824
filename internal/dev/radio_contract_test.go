package dev

import (
	"bytes"
	"testing"

	"sentomist/internal/medium"
)

// The MAC drives the radio only through these callbacks.
var _ medium.Client = (*Radio)(nil)

// radioView is everything a medium callback could change that the node or
// its scheduler can observe: the device's next self-scheduled event and the
// values of the readable radio ports, with the unread RX bytes standing in
// for PortRadioRxFifo (reading that port consumes a byte).
type radioView struct {
	next         uint64
	hasNext      bool
	status       uint8
	txStat       uint8
	rxLen, rxSrc uint8
	rxUnread     []byte
}

func viewRadio(r *Radio) radioView {
	v := radioView{rxUnread: append([]byte(nil), r.rxBuf[r.rxPos:]...)}
	v.next, v.hasNext = r.NextEvent()
	v.status, _ = r.In(PortRadioStatus, 0)
	v.txStat, _ = r.In(PortRadioTxStat, 0)
	v.rxLen, _ = r.In(PortRadioRxLen, 0)
	v.rxSrc, _ = r.In(PortRadioRxSrc, 0)
	return v
}

func (v radioView) equal(o radioView) bool {
	return v.next == o.next && v.hasNext == o.hasNext && v.status == o.status &&
		v.txStat == o.txStat && v.rxLen == o.rxLen && v.rxSrc == o.rxSrc &&
		bytes.Equal(v.rxUnread, o.rxUnread)
}

// TestRadioCallbacksRaiseOrChangeNothing pins the contract the event-horizon
// scheduler's dirty set rests on: every medium.Client callback on a Radio
// either raises an interrupt (so the scheduler's raise hook sees the node)
// or leaves everything the node and its scheduler can observe unchanged.
// In particular no callback may hand the radio a self-scheduled event.
func TestRadioCallbacksRaiseOrChangeNothing(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(r *Radio)
		call    func(r *Radio)
		raise   int // the IRQ the callback must raise; -1: none
	}{
		{"OnTxDone/txOK", nil, func(r *Radio) { r.OnTxDone(TxStatOK) }, IRQTxDone},
		{"OnTxDone/txNoAck", nil, func(r *Radio) { r.OnTxDone(TxStatNoAck) }, IRQTxDone},
		{"OnTxDone/after-receive", func(r *Radio) { r.OnReceive(4, []byte{1}) },
			func(r *Radio) { r.OnTxDone(TxStatOK) }, IRQTxDone},
		{"OnReceive/accepted", nil, func(r *Radio) { r.OnReceive(3, []byte{7, 8}) }, IRQRadioRX},
		{"OnReceive/after-drain", func(r *Radio) {
			r.OnReceive(3, []byte{7})
			r.In(PortRadioRxFifo, 0)
		}, func(r *Radio) { r.OnReceive(5, []byte{9}) }, IRQRadioRX},
		{"OnReceive/rxDrop", func(r *Radio) { r.OnReceive(3, []byte{7, 8}) },
			func(r *Radio) { r.OnReceive(5, []byte{1, 2, 3}) }, -1},
		{"OnReceive/rxDrop-partly-read", func(r *Radio) {
			r.OnReceive(3, []byte{7, 8})
			r.In(PortRadioRxFifo, 0)
		}, func(r *Radio) { r.OnReceive(5, []byte{1}) }, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := &irqRecorder{}
			r := NewRadio(rec)
			r.SetTransceiver(&fakeMAC{})
			if tc.prepare != nil {
				tc.prepare(r)
			}
			before, drops := viewRadio(r), r.RxDropped()
			rec.raised = nil
			tc.call(r)
			after := viewRadio(r)
			if after.hasNext {
				t.Fatalf("radio has a self-scheduled event at %d after the callback", after.next)
			}
			if tc.raise < 0 {
				if len(rec.raised) != 0 {
					t.Fatalf("raised %v, want none", rec.raised)
				}
				if !after.equal(before) {
					t.Fatalf("callback raised nothing but changed observable state:\n before %+v\n after  %+v", before, after)
				}
				if r.RxDropped() != drops+1 {
					t.Fatalf("drop count %d, want %d", r.RxDropped(), drops+1)
				}
				return
			}
			if len(rec.raised) != 1 || rec.raised[0] != tc.raise {
				t.Fatalf("raised %v, want [%d]", rec.raised, tc.raise)
			}
		})
	}
}
