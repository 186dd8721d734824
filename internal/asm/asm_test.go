package asm

import (
	"strings"
	"testing"

	"sentomist/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Result {
	t.Helper()
	r, err := String(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return r
}

func TestMinimalProgram(t *testing.T) {
	r := mustAssemble(t, `
.entry boot
boot:
	nop
	halt
`)
	p := r.Program
	if len(p.Code) != 2 {
		t.Fatalf("code length %d, want 2", len(p.Code))
	}
	if p.Code[0].Op != isa.NOP || p.Code[1].Op != isa.HALT {
		t.Fatalf("unexpected code %v", p.Code)
	}
	if p.Entry != 0 {
		t.Fatalf("entry %d, want 0", p.Entry)
	}
}

func TestAllDirectives(t *testing.T) {
	r := mustAssemble(t, `
.equ PORT, 0x21
.var counter
.var buf, 4
.var after
.vector 3, isr
.task 1, work
.entry boot
boot:
	ldi r0, 0
	sts counter, r0
	sei
	osrun
isr:
	in r1, PORT
	post 1
	reti
work:
	lds r2, buf+2
	ret
`)
	p := r.Program
	if got := r.Consts["PORT"]; got != 0x21 {
		t.Errorf("PORT = %#x", got)
	}
	if r.Vars["counter"] != VarBase {
		t.Errorf("counter at %#x, want %#x", r.Vars["counter"], VarBase)
	}
	if r.Vars["buf"] != VarBase+1 {
		t.Errorf("buf at %#x", r.Vars["buf"])
	}
	if r.Vars["after"] != VarBase+5 {
		t.Errorf("after at %#x (size-4 buf not honored)", r.Vars["after"])
	}
	if _, ok := p.Vectors[3]; !ok {
		t.Error("vector 3 missing")
	}
	if _, ok := p.Tasks[1]; !ok {
		t.Error("task 1 missing")
	}
	// lds r2, buf+2 must resolve to the buf address + 2.
	var found bool
	for _, in := range p.Code {
		if in.Op == isa.LDS && in.A == 2 {
			found = true
			if in.Imm != r.Vars["buf"]+2 {
				t.Errorf("buf+2 resolved to %#x, want %#x", in.Imm, r.Vars["buf"]+2)
			}
		}
	}
	if !found {
		t.Error("lds r2 not found")
	}
}

func TestForwardReferences(t *testing.T) {
	r := mustAssemble(t, `
.entry boot
boot:
	jmp target
	nop
target:
	halt
`)
	if r.Program.Code[0].Imm != 2 {
		t.Fatalf("forward jump resolved to %d, want 2", r.Program.Code[0].Imm)
	}
}

func TestNumericLiterals(t *testing.T) {
	r := mustAssemble(t, `
.entry e
e:
	ldi r0, 10
	ldi r1, 0x1f
	ldi r2, 0b101
	ldi r3, 'A'
	halt
`)
	wants := []uint16{10, 0x1f, 5, 'A'}
	for i, want := range wants {
		if got := r.Program.Code[i].Imm; got != want {
			t.Errorf("literal %d = %d, want %d", i, got, want)
		}
	}
}

func TestCommentsAndCase(t *testing.T) {
	r := mustAssemble(t, `
; full-line comment
# hash comment
.entry main
main:
	LDI R0, 1   ; trailing comment
	NOP         # another
	halt
`)
	if len(r.Program.Code) != 3 {
		t.Fatalf("code length %d, want 3", len(r.Program.Code))
	}
	if r.Program.Code[0].Op != isa.LDI {
		t.Fatalf("uppercase mnemonic not accepted")
	}
}

func TestMultipleLabelsOneAddress(t *testing.T) {
	r := mustAssemble(t, `
.entry a
a: b:
	halt
`)
	if r.Program.Entry != 0 {
		t.Fatal("entry mis-resolved")
	}
	syms := r.Program.Symbols[0]
	if len(syms) != 2 {
		t.Fatalf("expected two labels at 0, got %v", syms)
	}
}

func TestErrorCases(t *testing.T) {
	tests := []struct {
		name, src, wantErr string
	}{
		{"unknown mnemonic", "e:\n\tfrobnicate\n.entry e", "unknown mnemonic"},
		{"unknown directive", ".frob x", "unknown directive"},
		{"dup label", "a:\na:\n\tnop\n.entry a", "already defined"},
		{"dup equ", ".equ X, 1\n.equ X, 2", "already defined"},
		{"dup vector", ".vector 1, a\n.vector 1, b\na:\nb:\n\tnop\n.entry a", "duplicate .vector"},
		{"dup task", ".task 1, a\n.task 1, a\na:\n\tret\n.entry a", "duplicate .task"},
		{"dup entry", ".entry a\n.entry a\na:\n\tnop", "duplicate .entry"},
		{"undefined symbol", "e:\n\tjmp nowhere\n.entry e", "undefined symbol"},
		{"undefined vector label", ".vector 1, ghost\ne:\n\tnop\n.entry e", `undefined label "ghost"`},
		{"undefined task label", ".task 1, ghost\ne:\n\tnop\n.entry e", `undefined label "ghost"`},
		{"imm8 overflow", "e:\n\tldi r0, 300\n.entry e", "out of 8-bit range"},
		{"register as imm", "e:\n\tjmp r1\n.entry e", "must be an immediate"},
		{"imm as register", "e:\n\tmov 1, 2\n.entry e", "must be a register"},
		{"wrong arity", "e:\n\tmov r1\n.entry e", "wants 2 operands"},
		{"bad operand", "e:\n\tldi r0, $$\n.entry e", "cannot parse operand"},
		{"bad reg number", "e:\n\tinc r16\n.entry e", "must be a register"},
		{"var zero size", ".var x, 0", "zero size"},
		{"var overflow", ".var x, 5000", "overflows"},
		{"task id range", ".task 300, a\na:\n\tret\n.entry a", "exceeds 255"},
		{"equ name", ".equ 9x, 1", "not an identifier"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := String(tt.src)
			if err == nil {
				t.Fatalf("assembled successfully, want error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tt.wantErr)
			}
		})
	}
}

func TestErrorCarriesLineNumber(t *testing.T) {
	_, err := File("app.s", "\n\n\tbadop\n")
	if err == nil {
		t.Fatal("expected error")
	}
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if aerr.File != "app.s" || aerr.Line != 3 {
		t.Fatalf("error position %s:%d, want app.s:3", aerr.File, aerr.Line)
	}
}

func TestLinesMapping(t *testing.T) {
	r := mustAssemble(t, `.entry e
e:
	nop
	halt
`)
	if r.Program.Lines[0] != 3 || r.Program.Lines[1] != 4 {
		t.Fatalf("line map %v", r.Program.Lines)
	}
}

// TestDisassembleRoundTrip: assembling the disassembly of a program yields
// identical code, vectors, tasks, and entry.
func TestDisassembleRoundTrip(t *testing.T) {
	orig := mustAssemble(t, `
.equ PORT, 0x20
.var v
.vector 1, isr
.vector 3, isr2
.task 0, work
.task 2, work2
.entry boot
boot:
	ldi r0, 5
	sts v, r0
	sei
	osrun
isr:
	in r1, PORT
	post 0
	reti
isr2:
	post 2
	reti
work:
	lds r1, v
	cpi r1, 3
	breq done
	inc r1
	sts v, r1
done:
	ret
work2:
	call helper
	ret
helper:
	dec r1
	brne helper
	ret
`).Program
	re, err := String(orig.Disassemble())
	if err != nil {
		t.Fatalf("reassemble: %v", err)
	}
	p2 := re.Program
	if len(p2.Code) != len(orig.Code) {
		t.Fatalf("code length %d, want %d", len(p2.Code), len(orig.Code))
	}
	for i := range orig.Code {
		if orig.Code[i] != p2.Code[i] {
			t.Errorf("instr %d: %v != %v", i, orig.Code[i], p2.Code[i])
		}
	}
	if p2.Entry != orig.Entry {
		t.Errorf("entry %d != %d", p2.Entry, orig.Entry)
	}
	for irq, addr := range orig.Vectors {
		if p2.Vectors[irq] != addr {
			t.Errorf("vector %d: %d != %d", irq, p2.Vectors[irq], addr)
		}
	}
	for id, addr := range orig.Tasks {
		if p2.Tasks[id] != addr {
			t.Errorf("task %d: %d != %d", id, p2.Tasks[id], addr)
		}
	}
}
