package feature

import (
	"math"
	"testing"

	"sentomist/internal/stats"
)

// scalePalette is the value set fuzzed counters draw from: both signed
// zeros, small counts, a fraction, and the extremes of the finite
// nonnegative doubles (largest, smallest normal, smallest subnormal).
var scalePalette = []float64{
	0, math.Copysign(0, -1), 1, 2, 3, 0.5, 7,
	math.MaxFloat64, 0x1p-1022, math.SmallestNonzeroFloat64,
}

// decodeScaleInput turns fuzz bytes into a batch of sparse counters. The
// first byte picks the dimension (1–8). Each following op byte either
// repeats an earlier sample (high bit set, low bits pick which) or starts
// a new one whose stored dimensions are the op's low bits, each value
// taken from the next byte through scalePalette.
func decodeScaleInput(data []byte) []stats.Sparse {
	if len(data) == 0 {
		return nil
	}
	dim := 1 + int(data[0]%8)
	var out []stats.Sparse
	for p := 1; p < len(data); {
		op := data[p]
		p++
		if op&0x80 != 0 && len(out) > 0 {
			out = append(out, out[int(op&0x7f)%len(out)])
			continue
		}
		s := stats.Sparse{Dim: dim}
		for d := 0; d < dim; d++ {
			if op&(1<<d) == 0 || p >= len(data) {
				continue
			}
			s.Idx = append(s.Idx, int32(d))
			s.Val = append(s.Val, scalePalette[int(data[p])%len(scalePalette)])
			p++
		}
		out = append(out, s)
	}
	return out
}

func cloneSparse(s stats.Sparse) stats.Sparse {
	return stats.Sparse{
		Idx: append([]int32(nil), s.Idx...),
		Val: append([]float64(nil), s.Val...),
		Dim: s.Dim,
	}
}

// FuzzScaleDistinct proves the scaling half of the content-addressed
// online store: Scale01Sparse over the first-appearance distinct vectors
// (deduplicated by stats.AppendKey), each result handed to every member of
// its group, equals Scale01Sparse over all samples bit for bit. The
// committed corpus covers ±0, repeated vectors, empty vectors, constant
// dimensions, a single sample, an empty batch, extreme magnitudes, and
// nearby values that a lossy key would merge.
func FuzzScaleDistinct(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		samples := decodeScaleInput(data)
		all := make([]stats.Sparse, len(samples))
		for i, s := range samples {
			all[i] = cloneSparse(s)
		}
		Scale01Sparse(all)

		groupOf := map[string]int{}
		var distinct []stats.Sparse
		group := make([]int, len(samples))
		var key []byte
		for i, s := range samples {
			key = stats.AppendKey(key[:0], s)
			g, ok := groupOf[string(key)]
			if !ok {
				g = len(distinct)
				groupOf[string(key)] = g
				distinct = append(distinct, cloneSparse(s))
			}
			group[i] = g
		}
		Scale01Sparse(distinct)

		for i, want := range all {
			got := distinct[group[i]]
			if len(got.Idx) != len(want.Idx) || got.Dim != want.Dim {
				t.Fatalf("sample %d: distinct-scaled %+v, all-scaled %+v", i, got, want)
			}
			for k := range want.Idx {
				if got.Idx[k] != want.Idx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
					t.Fatalf("sample %d entry %d: distinct-scaled (%d, %v), all-scaled (%d, %v)",
						i, k, got.Idx[k], got.Val[k], want.Idx[k], want.Val[k])
				}
			}
		}
	})
}
