package bundle

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"path/filepath"
	"strings"
	"testing"

	"sentomist/internal/isa"
	"sentomist/internal/sim"
	"sentomist/internal/trace"
)

func sampleBundle() *Bundle {
	prog := &isa.Program{
		Code: []isa.Instr{
			{Op: isa.SEI},
			{Op: isa.OSRUN},
			{Op: isa.RETI},
		},
		Vectors: map[int]uint16{1: 2},
	}
	return &Bundle{
		Trace: &trace.Trace{
			Seed: 9,
			Nodes: []*trace.NodeTrace{{
				NodeID:     1,
				ProgramLen: 3,
				Markers: []trace.Marker{
					{Kind: trace.Int, Arg: 1, Cycle: 10},
					{Kind: trace.Reti, Cycle: 20, Deltas: []trace.Delta{{PC: 2, Count: 1}}},
				},
			}},
		},
		Programs: map[int]*isa.Program{1: prog},
		Vars:     map[int]map[string]uint16{1: {"x": 0x40}},
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := sampleBundle()
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace.Seed != 9 || len(got.Programs) != 1 || got.Vars[1]["x"] != 0x40 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if len(got.Programs[1].Code) != 3 {
		t.Fatal("program lost")
	}
}

func TestBundleFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.bundle")
	if err := sampleBundle().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestBundleValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Bundle)
		want   string
	}{
		{"no trace", func(b *Bundle) { b.Trace = nil }, "no trace"},
		{"missing program", func(b *Bundle) { delete(b.Programs, 1) }, "no program"},
		{"length mismatch", func(b *Bundle) { b.Trace.Nodes[0].ProgramLen = 7 }, "expects 7"},
		{"invalid trace", func(b *Bundle) { b.Trace.Nodes[0].Markers[0].Kind = 99 }, "bad kind"},
		{"var outside RAM", func(b *Bundle) { b.Vars[1]["x"] = 0xffff }, "outside RAM"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := sampleBundle()
			tt.mutate(b)
			err := b.Validate()
			if err == nil {
				t.Fatal("mutated bundle accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not contain %q", err, tt.want)
			}
			var buf bytes.Buffer
			if werr := b.Write(&buf); werr == nil {
				t.Fatal("Write accepted an invalid bundle")
			}
		})
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("definitely not a bundle")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader("SENTBDL1corrupt")); err == nil {
		t.Fatal("corrupt body accepted")
	}
}

// legacyStats mirrors sim.Stats as it was when the scheduler also carried
// speculative-section counters (the Spec* fields). Bundles written back
// then hold these fields in their gob stream.
type legacyStats struct {
	Rounds, IdleJumps, SoloJumps             uint64
	ParallelSections, HorizonBarriers        uint64
	ParallelAdvances, StagedEvents           uint64
	WorkersParked, WorkersWoken              uint64
	SpecSections, SpecAdvances, SpecCommits  uint64
	SpecRollbacks, SpecTruncations           uint64
	SpecCyclesCommitted, SpecCyclesDiscarded uint64
}

// legacyBundle mirrors Bundle with the legacy Stats shape; gob matches
// struct fields by name, so the type names do not matter.
type legacyBundle struct {
	Trace    *trace.Trace
	Programs map[int]*isa.Program
	Vars     map[int]map[string]uint16
	Stats    legacyStats
}

func legacyCounters() legacyStats {
	return legacyStats{
		Rounds: 1, IdleJumps: 2, SoloJumps: 3,
		ParallelSections: 4, HorizonBarriers: 5,
		ParallelAdvances: 6, StagedEvents: 7,
		WorkersParked: 8, WorkersWoken: 9,
		SpecSections: 10, SpecAdvances: 11, SpecCommits: 12,
		SpecRollbacks: 13, SpecTruncations: 14,
		SpecCyclesCommitted: 15, SpecCyclesDiscarded: 16,
	}
}

// TestBundleLegacyStats pins gob's tolerance of the removed speculation
// counters in both directions: a bundle carrying them loads through Read
// with every remaining counter intact, and a current bundle decodes into
// the legacy shape with the shared counters intact and the extra ones zero.
func TestBundleLegacyStats(t *testing.T) {
	want := sim.Stats{
		Rounds: 1, IdleJumps: 2, SoloJumps: 3,
		ParallelSections: 4, HorizonBarriers: 5,
		ParallelAdvances: 6, StagedEvents: 7,
		WorkersParked: 8, WorkersWoken: 9,
	}
	b := sampleBundle()

	var buf bytes.Buffer
	buf.WriteString(magic)
	zw := gzip.NewWriter(&buf)
	legacy := legacyBundle{Trace: b.Trace, Programs: b.Programs, Vars: b.Vars, Stats: legacyCounters()}
	if err := gob.NewEncoder(zw).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("legacy bundle rejected: %v", err)
	}
	if got.Stats != want {
		t.Errorf("legacy bundle stats = %+v, want %+v", got.Stats, want)
	}
	if got.Trace.Seed != 9 || got.Vars[1]["x"] != 0x40 {
		t.Errorf("legacy bundle lost data: %+v", got)
	}

	buf.Reset()
	b.Stats = want
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()[len(magic):]))
	if err != nil {
		t.Fatal(err)
	}
	var old legacyBundle
	if err := gob.NewDecoder(zr).Decode(&old); err != nil {
		t.Fatalf("current bundle unreadable in the legacy shape: %v", err)
	}
	wantOld := legacyCounters()
	wantOld.SpecSections, wantOld.SpecAdvances, wantOld.SpecCommits = 0, 0, 0
	wantOld.SpecRollbacks, wantOld.SpecTruncations = 0, 0
	wantOld.SpecCyclesCommitted, wantOld.SpecCyclesDiscarded = 0, 0
	if old.Stats != wantOld {
		t.Errorf("legacy decode stats = %+v, want %+v", old.Stats, wantOld)
	}
}

// TestReadRejectsCorruptFooter pins that Read verifies the gzip footer
// (CRC32 + length): gob stops reading once the bundle is decoded, so a
// truncated or bit-flipped tail must still fail the load.
func TestReadRejectsCorruptFooter(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleBundle().Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Read(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact bundle rejected: %v", err)
	}
	flipCRC := append([]byte(nil), good...)
	flipCRC[len(flipCRC)-8] ^= 0xff // first byte of the CRC32
	cases := map[string][]byte{
		"cut 1 byte":  good[:len(good)-1],
		"cut 4 bytes": good[:len(good)-4],
		"cut 8 bytes": good[:len(good)-8],
		"flipped CRC": flipCRC,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt gzip footer accepted")
			}
		})
	}
}
