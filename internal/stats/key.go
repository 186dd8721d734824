package stats

import (
	"encoding/binary"
	"math"
)

// keyEntryBytes is the size of one stored entry in a content key: its
// index as a uint32 and its value's IEEE-754 bits as a uint64.
const keyEntryBytes = 4 + 8

// AppendKey appends s's content key to dst: every stored entry, in order,
// as its index (little-endian uint32) followed by its value's bits
// (little-endian uint64). Vectors of one dimensionality have equal keys
// exactly when their stored entries are bit-identical, so +0 and -0 key
// apart; a missed match costs a duplicate group, never a wrong merge.
//
// This is the one dedup rule of the mining pipeline: the SVM groups its
// training samples by it, and the online miner stores each distinct raw
// counter once, as its key. The key holds the whole vector except Dim, so
// SetKey recovers it bit for bit.
func AppendKey(dst []byte, s Sparse) []byte {
	for k, idx := range s.Idx {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(idx))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Val[k]))
	}
	return dst
}

// SetKey sets s to the vector AppendKey encoded as key, with dimension
// dim, reusing s's arrays when they are large enough.
func (s *Sparse) SetKey(key string, dim int) {
	n := len(key) / keyEntryBytes
	if cap(s.Idx) < n || cap(s.Val) < n {
		s.Idx = make([]int32, n)
		s.Val = make([]float64, n)
	}
	s.Idx, s.Val, s.Dim = s.Idx[:n], s.Val[:n], dim
	for k := range s.Idx {
		e := key[k*keyEntryBytes : (k+1)*keyEntryBytes]
		s.Idx[k] = int32(leUint(e[:4]))
		s.Val[k] = math.Float64frombits(leUint(e[4:]))
	}
}

// leUint decodes a little-endian unsigned integer from a string of at most
// eight bytes (binary.LittleEndian reads []byte, which a string would have
// to be copied into).
func leUint(b string) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
