//go:build race

package trace

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a share of returned buffers at random, so allocation
// counts that rely on reuse skip themselves.
const raceEnabled = true
