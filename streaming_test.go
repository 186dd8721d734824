package sentomist_test

// The streaming pipeline claims exact equivalence, not approximation: an
// online anatomizer fed markers during emulation must produce the same
// intervals, bit-identical counters, and the same ranking as the two-pass
// materialized pipeline. These tests pin that on all three paper case
// studies and on the pooled campaign engine.

import (
	"reflect"
	"testing"

	"sentomist"
	"sentomist/internal/apps"
	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// streamedCase is one case study run with live streamers attached and the
// materialized trace still recorded, so both pipelines see the same run.
type streamedCase struct {
	run       *sentomist.Run
	nodes     []int // monitored nodes, in trace order
	streamers []*lifecycle.Streamer
	cfg       sentomist.MineConfig
}

func streamedFixtures(t *testing.T) map[string]*streamedCase {
	t.Helper()
	attach := func(nodes []int) (map[int]trace.StreamSink, []*lifecycle.Streamer) {
		sinks := make(map[int]trace.StreamSink, len(nodes))
		streamers := make([]*lifecycle.Streamer, len(nodes))
		for i, id := range nodes {
			streamers[i] = lifecycle.NewStreamer(id)
			sinks[id] = streamers[i]
		}
		return sinks, streamers
	}
	out := make(map[string]*streamedCase)

	nodesI := []int{sentomist.CaseISensorID}
	sinksI, strI := attach(nodesI)
	runI, err := sentomist.RunCaseI(sentomist.CaseIConfig{
		PeriodMS: 20, Seconds: 5, Seed: 100, Stream: sinksI,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["caseI"] = &streamedCase{
		run: runI, nodes: nodesI, streamers: strI,
		cfg: sentomist.MineConfig{IRQ: sentomist.IRQADC, Nodes: nodesI},
	}

	nodesII := []int{sentomist.CaseIIRelayID}
	sinksII, strII := attach(nodesII)
	runII, err := sentomist.RunCaseII(sentomist.CaseIIConfig{
		Seconds: 8, Seed: 7, Stream: sinksII,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["caseII"] = &streamedCase{
		run: runII, nodes: nodesII, streamers: strII,
		cfg: sentomist.MineConfig{IRQ: sentomist.IRQRadioRX, Nodes: nodesII, Labels: sentomist.LabelSeqOnly},
	}

	nodesIII := sentomist.CaseIIISources()
	sinksIII, strIII := attach(nodesIII)
	runIII, err := sentomist.RunCaseIII(sentomist.CaseIIIConfig{
		Seconds: 8, Seed: 20, Stream: sinksIII,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["caseIII"] = &streamedCase{
		run: runIII, nodes: nodesIII, streamers: strIII,
		cfg: sentomist.MineConfig{IRQ: sentomist.IRQTimer0, Nodes: nodesIII, Labels: sentomist.LabelNodeSeq},
	}
	return out
}

// TestStreamingMatchesMaterialized checks, per monitored node of every case
// study, that the live streamer's intervals and counters are bit-identical
// to the materialized reference (empty counters on incomplete intervals),
// and that ranking the streamed batches
// reproduces Mine's ranking exactly.
func TestStreamingMatchesMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	for name, fx := range streamedFixtures(t) {
		t.Run(name, func(t *testing.T) {
			ext := feature.NewExtractor(fx.run.Trace)
			var batches []sentomist.MineBatch
			for i, id := range fx.nodes {
				nt := fx.run.Trace.Node(id)
				wantIvs, err := lifecycle.NewSequence(nt).Extract()
				if err != nil {
					t.Fatal(err)
				}
				gotIvs, gotCnt, err := fx.streamers[i].Finalize()
				if err != nil {
					t.Fatalf("node %d: %v", id, err)
				}
				if len(gotIvs) != len(wantIvs) {
					t.Fatalf("node %d: %d streamed intervals, want %d", id, len(gotIvs), len(wantIvs))
				}
				for k := range wantIvs {
					if !reflect.DeepEqual(gotIvs[k], wantIvs[k]) {
						t.Fatalf("node %d interval %d:\n got: %+v\nwant: %+v", id, k, gotIvs[k], wantIvs[k])
					}
					var wantC stats.Sparse // empty on an incomplete interval
					if wantIvs[k].Complete {
						if wantC, err = ext.CounterSparse(wantIvs[k]); err != nil {
							t.Fatal(err)
						}
					}
					if !reflect.DeepEqual(gotCnt[k], wantC) {
						t.Fatalf("node %d interval %d: counter diverges", id, k)
					}
				}
				batches = append(batches, sentomist.MineBatch{
					Run: 1, Intervals: gotIvs, Counters: copySparse(gotCnt),
				})
			}
			want, err := sentomist.Mine(
				[]sentomist.RunInput{{Trace: fx.run.Trace, Programs: fx.run.Programs}}, fx.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sentomist.MineBatches(batches, fx.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, name+"/streamed", want, got)
		})
	}
}

// copySparse deep-copies counters: scoring scales vectors in place, and the
// originals here are also compared against the materialized reference.
func copySparse(in []stats.Sparse) []stats.Sparse {
	out := make([]stats.Sparse, len(in))
	for i, v := range in {
		out[i] = stats.Sparse{
			Idx: append([]int32(nil), v.Idx...),
			Val: append([]float64(nil), v.Val...),
			Dim: v.Dim,
		}
	}
	return out
}

// campaignCaseI runs a reduced Case-I campaign (three runs, five seconds)
// through the streaming engine with markers discarded.
func campaignCaseI(workers int) (*sentomist.Ranking, error) {
	periods := []int{20, 40, 60}
	runs := make([]sentomist.CampaignRun, len(periods))
	for i, d := range periods {
		i, d := i, d
		runs[i] = func(attach sentomist.CampaignAttach) error {
			run, err := sentomist.RunCaseI(sentomist.CaseIConfig{
				PeriodMS: d, Seconds: 5, Seed: uint64(100 + i),
				Stream: map[int]trace.StreamSink{
					sentomist.CaseISensorID: attach(sentomist.CaseISensorID),
				},
				DiscardMarkers: true,
			})
			if err != nil {
				return err
			}
			run.Release()
			return nil
		}
	}
	return sentomist.MineCampaign(sentomist.CampaignConfig{
		IRQ:     sentomist.IRQADC,
		Nodes:   []int{sentomist.CaseISensorID},
		Workers: workers,
	}, runs)
}

// TestCampaignMatchesMine pins the pooled campaign engine — streaming
// anatomization, discarded markers, recycled scratch — against the
// materialized multi-run pipeline, at several worker counts.
func TestCampaignMatchesMine(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulations")
	}
	var inputs []sentomist.RunInput
	for i, d := range []int{20, 40, 60} {
		run, err := sentomist.RunCaseI(sentomist.CaseIConfig{PeriodMS: d, Seconds: 5, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, sentomist.RunInput{Trace: run.Trace, Programs: run.Programs})
	}
	want, err := sentomist.Mine(inputs, sentomist.MineConfig{
		IRQ: sentomist.IRQADC, Nodes: []int{sentomist.CaseISensorID},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} {
		got, err := campaignCaseI(workers)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "campaign", want, got)
	}
}

// TestDiscardedTraceIsEmpty pins the memory contract of discard mode: no
// markers are materialized, yet the streamed ranking above proves the full
// pipeline still ran.
func TestDiscardedTraceIsEmpty(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation")
	}
	s := sentomist.NewStreamer(apps.OscSensorID)
	run, err := sentomist.RunCaseI(sentomist.CaseIConfig{
		PeriodMS: 20, Seconds: 2, Seed: 1,
		Stream:         map[int]trace.StreamSink{apps.OscSensorID: s},
		DiscardMarkers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, nt := range run.Trace.Nodes {
		if len(nt.Markers) != 0 {
			t.Fatalf("node %d materialized %d markers in discard mode", nt.NodeID, len(nt.Markers))
		}
	}
	ivs, _, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) == 0 {
		t.Fatal("streamer saw no intervals in discard mode")
	}
}
