package apps

import (
	"sync"
	"sync/atomic"

	"sentomist/internal/asm"
)

// Assembly results are immutable once built (the Program instruction slice
// and the Vars/Consts maps are only ever read after assembly), so nodes and
// runs can share them. A campaign re-running the same deployment assembles
// each distinct source once instead of once per run; together with the
// predecode cache this makes repeat runs of a scenario allocation-free on
// the program side.
//
// Synthesized scenarios (`sentomist soak`) produce unbounded distinct
// sources, so the cache is bounded: past asmCacheMax entries it is
// flushed wholesale, the same policy the predecode cache uses.
const asmCacheMax = 64

var (
	asmCache      sync.Map // source string -> *asm.Result
	asmCacheCount atomic.Int64
)

// assembleCached returns the shared assembly of source, building it on the
// first request. Concurrent callers may assemble the same source twice;
// both results are equivalent and one wins the cache slot.
func assembleCached(source string) (*asm.Result, error) {
	if r, ok := asmCache.Load(source); ok {
		return r.(*asm.Result), nil
	}
	r, err := asm.String(source)
	if err != nil {
		return nil, err
	}
	if asmCacheCount.Load() >= asmCacheMax {
		asmCache.Range(func(k, _ any) bool {
			asmCache.Delete(k)
			return true
		})
		asmCacheCount.Store(0)
	}
	if _, loaded := asmCache.LoadOrStore(source, r); !loaded {
		asmCacheCount.Add(1)
	}
	return r, nil
}
