package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one traced call into a layer: name, wall-clock bounds relative to
// the tracer's start, the span that caused it (0 for a session root), and
// the session it belongs to.
type span struct {
	Name    string  `json:"name"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Session int     `json:"session"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
}

// tracer records spans from the benchmark's own calls into the program's
// public functions. They are kept in memory and written out when the
// benchmark ends. A nil *tracer is the untraced mode: every method is a
// no-op, so workload code calls it unconditionally.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	session int
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Session: t.session, Start: time.Since(t.t0).Seconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes span id, renaming it when name is non-empty (for calls whose
// kind is known only afterwards, such as an Add that triggered a refit).
func (t *tracer) endAs(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	if name != "" {
		s.Name = name
	}
}

// startSession opens a root span for the next workload session; its
// descendants share the session number.
func (t *tracer) startSession(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.session++
	t.mu.Unlock()
	return t.begin(name, 0)
}

// sessionSpans returns the spans of session n.
func (t *tracer) sessionSpans(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Session == n {
			out = append(out, s)
		}
	}
	return out
}

// spanTotals sums span durations and self times by name. A span's self time
// is its duration minus the part of its interval its child spans cover
// (children of one parent may overlap when they run on parallel workers).
func spanTotals(spans []span) (total, self map[string]float64, count map[string]int) {
	total, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		count[s.Name]++
		self[s.Name] += d - covered(s, children[s.ID])
	}
	return total, self, count
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	sum, hi := 0.0, parent.Start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			sum += v.b - hi
			hi = v.b
		}
	}
	return sum
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set size in bytes (Linux reports
// ru_maxrss in KiB).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the cumulative number of bytes allocated on the heap.
func heapAllocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q=0.5 is the median); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// hostInfo gathers the host block. The commit comes from the launcher
// (run.sh), which reads it from git when the checkout is a repository.
func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     os.Getenv("SESSIONBENCH_COMMIT"),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
