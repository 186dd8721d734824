package apps

import (
	"testing"

	"sentomist/internal/asm"
)

// TestBuiltinSourcesAssemble: every bundled program must assemble cleanly
// — this is what `sentomist asm -builtin` relies on.
func TestBuiltinSourcesAssemble(t *testing.T) {
	names := []string{
		"caseI", "caseI-fixed", "caseI-sink",
		"caseII", "caseII-fixed", "caseII-source",
		"caseIII", "caseIII-fixed",
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			src, err := BuiltinSource(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := asm.String(src); err != nil {
				t.Fatalf("does not assemble: %v", err)
			}
		})
	}
	if _, err := BuiltinSource("ghost"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// TestCaseIBinaryLayoutStableAcrossPeriods: the five Case-I testing runs
// use different sampling periods but must produce structurally identical
// binaries (only immediates differ), or pooling their instruction counters
// into one sample space would be meaningless.
func TestCaseIBinaryLayoutStableAcrossPeriods(t *testing.T) {
	ref, err := asm.String(oscSensorSource(20_000, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []uint64{40, 60, 80, 100} {
		r, err := asm.String(oscSensorSource(ms*1000, true))
		if err != nil {
			t.Fatalf("D=%dms: %v", ms, err)
		}
		if len(r.Program.Code) != len(ref.Program.Code) {
			t.Fatalf("D=%dms: %d instructions vs %d at D=20ms",
				ms, len(r.Program.Code), len(ref.Program.Code))
		}
		for pc := range ref.Program.Code {
			if r.Program.Code[pc].Op != ref.Program.Code[pc].Op {
				t.Fatalf("D=%dms: opcode differs at %#04x", ms, pc)
			}
		}
	}
}

// TestRunErrors covers configuration rejections.
func TestRunErrors(t *testing.T) {
	if _, err := RunOscilloscope(OscConfig{PeriodMS: 0, Seconds: 1}); err == nil {
		t.Error("zero period accepted")
	}
	run, err := RunOscilloscope(OscConfig{PeriodMS: 20, Seconds: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.RAM(OscSensorID, "nosuchvar"); err == nil {
		t.Error("unknown var accepted")
	}
	if _, err := run.RAM(99, "dataItem"); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := LabelPC(run.Program(OscSensorID), "nosuchlabel"); err == nil {
		t.Error("unknown label accepted")
	}
}
