package apps

// Engine benchmarks over the real Case-I workload, on the batched
// event-horizon engine and on the single-step reference engine. The
// sim_s/host_s metric is the simulated-seconds-per-host-second figure of
// merit quoted in docs/PERFORMANCE.md.

import (
	"sync"
	"testing"
)

func benchOscilloscope(b *testing.B, reference bool) {
	b.Helper()
	const seconds = 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunOscilloscope(OscConfig{
			PeriodMS: 20, Seconds: seconds, Seed: 100, reference: reference,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(seconds*float64(b.N)/b.Elapsed().Seconds(), "sim_s/host_s")
}

// BenchmarkOscilloscopeRun: one full 10-second oscilloscope simulation per
// iteration.
func BenchmarkOscilloscopeRun(b *testing.B) {
	b.Run("batched", func(b *testing.B) { benchOscilloscope(b, false) })
	b.Run("reference", func(b *testing.B) { benchOscilloscope(b, true) })
}

// BenchmarkSimulateCaseI measures the record phase alone: the five pooled
// Case-I simulations (D = 20..100 ms, seeds 100..104, 10 s each) exactly as
// experiments.CaseI launches them, with the mining pipeline excluded. The
// batched/reference sub-benchmarks are the speedup measurement of the fast
// emulation front-end (predecoded dispatch, block batching, loop folding,
// event-horizon scheduling) against the single-step fixed-quantum engine;
// both produce byte-identical traces (TestEngineDifferential).
func BenchmarkSimulateCaseI(b *testing.B) {
	periods := []int{20, 40, 60, 80, 100}
	simulate := func(b *testing.B, reference bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			errs := make([]error, len(periods))
			var wg sync.WaitGroup
			for j, d := range periods {
				wg.Add(1)
				go func(j, d int) {
					defer wg.Done()
					_, errs[j] = RunOscilloscope(OscConfig{
						PeriodMS: d, Seconds: 10, Seed: 100 + uint64(j), reference: reference,
					})
				}(j, d)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		simSeconds := 10.0 * float64(len(periods))
		b.ReportMetric(simSeconds*float64(b.N)/b.Elapsed().Seconds(), "sim_s/host_s")
	}
	b.Run("batched", func(b *testing.B) { simulate(b, false) })
	b.Run("reference", func(b *testing.B) { simulate(b, true) })
}
