package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"sentomist/internal/core"
)

// benchmarkSpec reads the metric lists of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestTinyPass runs every workload at tiny size, untraced and traced, and
// requires the result line to carry exactly the metrics BENCHMARK.json
// names, with their units, and the human-readable report to print each
// workload's own metrics and failure ratio.
func TestTinyPass(t *testing.T) {
	wantE2E, wantLayers := benchmarkSpec(t)
	for _, name := range []string{"ctp-campaign", "chain-record", "large-online"} {
		for _, traced := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "3", "--seconds", "0", "--trace", traced,
				"--size", "tiny", "--scratch", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, traced, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", name, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace %s: result %+v", name, traced, res)
			}
			want := wantE2E
			if traced == "1" {
				want = wantLayers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
			}
			for _, m := range append([]metric{{name: "failed_ratio", unit: "ratio"}}, extras[name]...) {
				if !strings.Contains(out.String(), m.name) {
					t.Errorf("%s: report lacks %s", name, m.name)
				}
			}
			if !strings.HasPrefix(lines[0], `host {"nproc":`) {
				t.Errorf("%s: first line %q is not the host block", name, lines[0])
			}
		}
	}
}

// TestPerturbedOutputFailsCheck swaps two ranked samples (or alters one
// recorded marker) after a session and requires the output check to fail,
// so a check cannot pass vacuously.
func TestPerturbedOutputFailsCheck(t *testing.T) {
	for _, name := range []string{"ctp-campaign", "chain-record", "large-online"} {
		w, err := newWorkload(name, 5, sizePresets["tiny"], t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.session(nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := w.check(); err != nil {
			t.Fatalf("%s: unperturbed check failed: %v", name, err)
		}
		switch w := w.(type) {
		case *ctpCampaign:
			swapDistinct(t, w.final.Samples)
		case *largeOnline:
			swapDistinct(t, w.final.Samples)
		case *chainRecord:
			ms := w.run.Trace.Nodes[0].Markers
			ms[len(ms)/2].Cycle++
		}
		if err := w.check(); err == nil {
			t.Errorf("%s: check passed a perturbed output", name)
		}
	}
}

// swapDistinct swaps the first ranked sample with the next one that has a
// different interval.
func swapDistinct(t *testing.T, s []core.Sample) {
	t.Helper()
	for i := 1; i < len(s); i++ {
		if s[i].Run != s[0].Run || s[i].Interval != s[0].Interval {
			s[0], s[i] = s[i], s[0]
			return
		}
	}
	t.Fatal("no two distinct samples to swap")
}
