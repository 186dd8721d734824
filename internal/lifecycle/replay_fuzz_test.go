package lifecycle_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/trace"
)

// decodeFuzzMarkers reads a marker sequence from fuzz bytes. Each marker is
// four bytes — kind, arg, cycle increment, delta count — followed by three
// bytes per delta: a little-endian PC, reduced modulo progLen when the
// program is nonempty, and a count byte b: b itself below 0x80, else
// 2^32 − 256 + b, so counts reach the top of the uint32 range. A truncated
// tail is dropped.
func decodeFuzzMarkers(progLen int, data []byte) []trace.Marker {
	var out []trace.Marker
	var cycle uint64
	for len(data) >= 4 {
		m := trace.Marker{Kind: trace.PostTask + trace.Kind(data[0]%5), Arg: int(data[1])}
		cycle += uint64(data[2])
		m.Cycle = cycle
		n := int(data[3] % 4)
		data = data[4:]
		if len(data) < 3*n {
			break
		}
		for k := 0; k < n; k++ {
			pc := int(data[0]) | int(data[1])<<8
			if progLen > 0 {
				pc %= progLen
			}
			c := uint32(data[2])
			if c >= 0x80 {
				c = math.MaxUint32 - (0xff - c)
			}
			m.Deltas = append(m.Deltas, trace.Delta{PC: uint16(pc), Count: c})
			data = data[3:]
		}
		out = append(out, m)
	}
	return out
}

// FuzzReplayMatchesExtract is the differential between the two anatomizers
// on arbitrary marker sequences that trace.Validate accepts: the streamer
// (kept to one IRQ when keep is nonzero) and the two-pass reference,
// NewSequence(nt).Extract() plus Extractor.CounterSparse, must find the
// same intervals with bit-identical counters on the complete ones and
// empty counters on the incomplete ones, or both fail with the same
// ErrMalformed error; the streamer must also agree with itself when it
// compacts its log at every doubling.
func FuzzReplayMatchesExtract(f *testing.F) {
	f.Fuzz(func(t *testing.T, progLen uint16, keep byte, data []byte) {
		nt := &trace.NodeTrace{NodeID: 1, ProgramLen: int(progLen), Markers: decodeFuzzMarkers(int(progLen), data)}
		if err := (&trace.Trace{Nodes: []*trace.NodeTrace{nt}}).Validate(); err != nil {
			return
		}
		want, wantErr := lifecycle.NewSequence(nt).Extract()
		s := lifecycle.NewStreamer(nt.NodeID)
		if keep != 0 {
			s.Keep(int(keep))
		}
		got, cnt, gotErr := s.Replay(nt)
		// The same streamer compacting its log at every doubling.
		restore := lifecycle.SetMinCompact(1)
		c := lifecycle.NewStreamer(nt.NodeID)
		if keep != 0 {
			c.Keep(int(keep))
		}
		cGot, cCnt, cErr := c.Replay(nt)
		restore()
		if !reflect.DeepEqual(cGot, got) || !reflect.DeepEqual(cCnt, cnt) || fmt.Sprint(cErr) != fmt.Sprint(gotErr) {
			t.Fatalf("compacting replay diverges:\n got: %+v %+v %v\nwant: %+v %+v %v", cGot, cCnt, cErr, got, cnt, gotErr)
		}
		if wantErr != nil || gotErr != nil {
			if !errors.Is(wantErr, lifecycle.ErrMalformed) || !errors.Is(gotErr, lifecycle.ErrMalformed) ||
				wantErr.Error() != gotErr.Error() {
				t.Fatalf("errors differ:\n  materialized: %v\n  streaming:    %v", wantErr, gotErr)
			}
			return
		}
		if keep != 0 {
			kept := want[:0]
			for _, iv := range want {
				if iv.IRQ == int(keep) {
					kept = append(kept, iv)
				}
			}
			want = kept
		}
		if len(got) != len(want) {
			t.Fatalf("%d streamed intervals, want %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
		}
		ext := feature.NewExtractor(&trace.Trace{Nodes: []*trace.NodeTrace{nt}})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("interval %d:\n got: %+v\nwant: %+v", i, got[i], want[i])
			}
			wantC, err := referenceCounter(ext, want[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cnt[i], wantC) {
				t.Fatalf("interval %d counter:\n got: %+v\nwant: %+v", i, cnt[i], wantC)
			}
		}
	})
}
