package sim_test

// Scheduler benchmarks: a fuzz-interrupted single node run under the
// event-horizon engine and the fixed-quantum reference engine. The workload
// alternates dense handler activity with long idle stretches, so the
// numbers reflect both block batching and idle jumps.

import (
	"testing"

	"sentomist/internal/asm"
	"sentomist/internal/dev"
	"sentomist/internal/node"
	"sentomist/internal/randx"
	"sentomist/internal/sim"
)

const benchSource = `
.var acc

.vector 1, h_count
.vector 2, h_posting
.task 0, t_work
.entry boot

boot:
	sei
	osrun

h_count:
	push r0
	lds  r0, acc
	inc  r0
	sts  acc, r0
	pop  r0
	reti

h_posting:
	post 0
	reti

t_work:
	push r0
	ldi  r0, 200
tw_spin:
	dec  r0
	brne tw_spin
	pop  r0
	ret
`

// benchSim builds the scenario fresh (node state is not reusable across
// runs) and simulates `cycles` of it.
func benchSim(b *testing.B, reference bool, cycles uint64) {
	b.Helper()
	const cyclesPerSecond = 1_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := asm.String(benchSource)
		if err != nil {
			b.Fatal(err)
		}
		n, err := node.New(node.Config{ID: 1, Program: r.Program})
		if err != nil {
			b.Fatal(err)
		}
		n.Attach(dev.NewFuzzer(n, randx.New(42), []int{1, 2}, 40, 2500))
		s := sim.New(42, []*node.Node{n}, nil)
		if reference {
			s = sim.NewReference(42, []*node.Node{n}, nil)
		}
		if err := s.Run(cycles); err != nil {
			b.Fatal(err)
		}
	}
	simSeconds := float64(cycles) / cyclesPerSecond
	b.ReportMetric(simSeconds*float64(b.N)/b.Elapsed().Seconds(), "sim_s/host_s")
}

func BenchmarkRun(b *testing.B) {
	const cycles = 2_000_000 // 2 simulated seconds
	b.Run("batched", func(b *testing.B) { benchSim(b, false, cycles) })
	b.Run("reference", func(b *testing.B) { benchSim(b, true, cycles) })
}
