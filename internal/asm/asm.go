// Package asm assembles SVM-8 assembly text into an isa.Program.
//
// The language is a conventional two-pass assembler dialect:
//
//	; line comment (also #)
//	.equ  NAME, expr        ; named constant
//	.var  name[, size]      ; allocate size bytes (default 1) of data RAM
//	.vector irq, label      ; interrupt vector
//	.task id, label         ; task entry point (TinyOS-style deferred call)
//	.entry label            ; boot entry point
//	label:                  ; code label
//	        ldi r0, 3       ; instructions, operands per the ISA format
//
// Operands are registers (r0..r15), integer literals (decimal, 0x hex, 0b
// binary, 'c' character), symbols (labels, .equ constants, .var addresses),
// or symbol+literal / symbol-literal sums. Mnemonics, directives, and
// register names are case-insensitive; symbols are case-sensitive.
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sentomist/internal/isa"
)

// VarBase is the first data-RAM address handed out by the .var allocator.
// Low addresses are left free for ad-hoc scratch use in tests.
const VarBase = 0x0040

// Error describes an assembly failure with source position.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.File == "" {
		return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Result is the output of a successful assembly.
type Result struct {
	Program *isa.Program
	// Vars maps each .var name to its allocated data-RAM address.
	Vars map[string]uint16
	// Consts maps each .equ name to its value.
	Consts map[string]uint16
}

type operandKind uint8

const (
	opReg operandKind = iota + 1
	opImm             // immediate/address/port, possibly symbolic
)

type operand struct {
	kind operandKind
	reg  uint8
	sym  string // symbol name, "" for pure literals
	off  int    // literal value, or offset added to sym
}

type pendingInstr struct {
	op   isa.Op
	args []operand
	line int
	addr uint16
}

type assembler struct {
	file    string
	symbols map[string]uint16 // labels + .equ + .var, resolved in pass 1
	symLine map[string]int
	labels  map[string][]uint16 // label name -> address (for Program.Symbols)
	vars    map[string]uint16
	consts  map[string]uint16
	varNext uint16
	instrs  []pendingInstr
	vectors map[int]string
	tasks   map[int]string
	entry   string
	lines   map[uint16]int
}

// File assembles src (with name used in error messages) into a Program.
func File(name, src string) (*Result, error) {
	a := &assembler{
		file:    name,
		symbols: make(map[string]uint16),
		symLine: make(map[string]int),
		labels:  make(map[string][]uint16),
		vars:    make(map[string]uint16),
		consts:  make(map[string]uint16),
		varNext: VarBase,
		vectors: make(map[int]string),
		tasks:   make(map[int]string),
		lines:   make(map[uint16]int),
	}
	if err := a.pass1(src); err != nil {
		return nil, err
	}
	return a.pass2()
}

// String assembles src with a generic name.
func String(src string) (*Result, error) { return File("", src) }

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{File: a.file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) define(name string, v uint16, line int) error {
	if prev, ok := a.symLine[name]; ok {
		return a.errf(line, "symbol %q already defined at line %d", name, prev)
	}
	a.symbols[name] = v
	a.symLine[name] = line
	return nil
}

func (a *assembler) pass1(src string) error {
	pc := uint16(0)
	for ln, raw := range strings.Split(src, "\n") {
		line := ln + 1
		text := stripComment(raw)
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		// Labels: possibly several on one line, then optional statement.
		for {
			idx := strings.IndexByte(text, ':')
			if idx < 0 {
				break
			}
			head := strings.TrimSpace(text[:idx])
			if !isIdent(head) {
				break
			}
			if err := a.define(head, pc, line); err != nil {
				return err
			}
			a.labels[head] = append(a.labels[head], pc)
			text = strings.TrimSpace(text[idx+1:])
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ".") {
			if err := a.directive(text, line, pc); err != nil {
				return err
			}
			continue
		}
		op, args, err := a.parseInstr(text, line)
		if err != nil {
			return err
		}
		a.instrs = append(a.instrs, pendingInstr{op: op, args: args, line: line, addr: pc})
		a.lines[pc] = line
		pc++
		if pc == 0 {
			return a.errf(line, "program exceeds 16-bit code space")
		}
	}
	return nil
}

func (a *assembler) directive(text string, line int, pc uint16) error {
	name, rest, _ := strings.Cut(text, " ")
	name = strings.ToLower(strings.TrimSpace(name))
	args := splitArgs(rest)
	switch name {
	case ".equ":
		if len(args) != 2 {
			return a.errf(line, ".equ wants NAME, value")
		}
		if !isIdent(args[0]) {
			return a.errf(line, ".equ name %q is not an identifier", args[0])
		}
		v, err := a.literal(args[1], line)
		if err != nil {
			return err
		}
		if err := a.define(args[0], v, line); err != nil {
			return err
		}
		a.consts[args[0]] = v
	case ".var":
		if len(args) != 1 && len(args) != 2 {
			return a.errf(line, ".var wants name[, size]")
		}
		if !isIdent(args[0]) {
			return a.errf(line, ".var name %q is not an identifier", args[0])
		}
		size := uint16(1)
		if len(args) == 2 {
			v, err := a.literal(args[1], line)
			if err != nil {
				return err
			}
			if v == 0 {
				return a.errf(line, ".var %s has zero size", args[0])
			}
			size = v
		}
		if int(a.varNext)+int(size) > isa.RAMSize {
			return a.errf(line, ".var %s overflows %d-byte RAM", args[0], isa.RAMSize)
		}
		if err := a.define(args[0], a.varNext, line); err != nil {
			return err
		}
		a.vars[args[0]] = a.varNext
		a.varNext += size
	case ".vector":
		if len(args) != 2 {
			return a.errf(line, ".vector wants irq, label")
		}
		irq, err := a.literal(args[0], line)
		if err != nil {
			return err
		}
		if _, dup := a.vectors[int(irq)]; dup {
			return a.errf(line, "duplicate .vector %d", irq)
		}
		a.vectors[int(irq)] = args[1]
	case ".task":
		if len(args) != 2 {
			return a.errf(line, ".task wants id, label")
		}
		id, err := a.literal(args[0], line)
		if err != nil {
			return err
		}
		if id > 255 {
			return a.errf(line, "task id %d exceeds 255", id)
		}
		if _, dup := a.tasks[int(id)]; dup {
			return a.errf(line, "duplicate .task %d", id)
		}
		a.tasks[int(id)] = args[1]
	case ".entry":
		if len(args) != 1 {
			return a.errf(line, ".entry wants label")
		}
		if a.entry != "" {
			return a.errf(line, "duplicate .entry")
		}
		a.entry = args[1-1]
	default:
		return a.errf(line, "unknown directive %s", name)
	}
	_ = pc
	return nil
}

func (a *assembler) parseInstr(text string, line int) (isa.Op, []operand, error) {
	mn, rest, _ := strings.Cut(text, " ")
	mn = strings.ToLower(strings.TrimSpace(mn))
	op, ok := isa.OpByName(mn)
	if !ok {
		return 0, nil, a.errf(line, "unknown mnemonic %q", mn)
	}
	parts := splitArgs(rest)
	args := make([]operand, 0, len(parts))
	for _, p := range parts {
		o, err := a.parseOperand(p, line)
		if err != nil {
			return 0, nil, err
		}
		args = append(args, o)
	}
	if err := checkArity(op, args, a, line); err != nil {
		return 0, nil, err
	}
	return op, args, nil
}

func (a *assembler) parseOperand(s string, line int) (operand, error) {
	if r, ok := parseReg(s); ok {
		return operand{kind: opReg, reg: r}, nil
	}
	// symbol, symbol+lit, symbol-lit, or literal
	sym := s
	off := 0
	for _, sep := range []byte{'+', '-'} {
		if i := strings.LastIndexByte(s, sep); i > 0 {
			v, err := parseInt(strings.TrimSpace(s[i+1:]))
			if err == nil && isIdent(strings.TrimSpace(s[:i])) {
				sym = strings.TrimSpace(s[:i])
				if sep == '-' {
					off = -int(v)
				} else {
					off = int(v)
				}
				return operand{kind: opImm, sym: sym, off: off}, nil
			}
		}
	}
	if v, err := parseInt(s); err == nil {
		return operand{kind: opImm, off: int(v)}, nil
	}
	if isIdent(sym) {
		return operand{kind: opImm, sym: sym}, nil
	}
	return operand{}, a.errf(line, "cannot parse operand %q", s)
}

// literal resolves s in pass 1: integer literal or already-defined symbol.
func (a *assembler) literal(s string, line int) (uint16, error) {
	if v, err := parseInt(s); err == nil {
		return v, nil
	}
	if v, ok := a.symbols[s]; ok {
		return v, nil
	}
	return 0, a.errf(line, "expected literal or defined symbol, got %q", s)
}

func (a *assembler) resolve(o operand, line int, bits int) (uint16, error) {
	v := o.off
	if o.sym != "" {
		base, ok := a.symbols[o.sym]
		if !ok {
			return 0, a.errf(line, "undefined symbol %q", o.sym)
		}
		v += int(base)
	}
	max := 1<<bits - 1
	if v < 0 || v > max {
		return 0, a.errf(line, "value %d out of %d-bit range", v, bits)
	}
	return uint16(v), nil
}

func (a *assembler) pass2() (*Result, error) {
	code := make([]isa.Instr, len(a.instrs))
	for idx, pi := range a.instrs {
		in, err := a.encodeInstr(pi)
		if err != nil {
			return nil, err
		}
		code[idx] = in
	}
	p := &isa.Program{
		Code:    code,
		Vectors: make(map[int]uint16, len(a.vectors)),
		Tasks:   make(map[int]uint16, len(a.tasks)),
		Symbols: make(map[uint16][]string, len(a.labels)),
		Lines:   a.lines,
	}
	for irq, label := range a.vectors {
		addr, ok := a.symbols[label]
		if !ok {
			return nil, a.errf(0, ".vector %d: undefined label %q", irq, label)
		}
		p.Vectors[irq] = addr
	}
	for id, label := range a.tasks {
		addr, ok := a.symbols[label]
		if !ok {
			return nil, a.errf(0, ".task %d: undefined label %q", id, label)
		}
		p.Tasks[id] = addr
	}
	if a.entry != "" {
		addr, ok := a.symbols[a.entry]
		if !ok {
			return nil, a.errf(0, ".entry: undefined label %q", a.entry)
		}
		p.Entry = addr
	}
	for name, addrs := range a.labels {
		for _, addr := range addrs {
			p.Symbols[addr] = append(p.Symbols[addr], name)
		}
	}
	for _, names := range p.Symbols {
		sort.Strings(names)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("asm: %w", err)
	}
	return &Result{Program: p, Vars: a.vars, Consts: a.consts}, nil
}

func (a *assembler) encodeInstr(pi pendingInstr) (isa.Instr, error) {
	sp := pi.op.Spec()
	in := isa.Instr{Op: pi.op}
	var err error
	switch sp.Format {
	case isa.FmtNone:
	case isa.FmtRdRs:
		in.A, in.B = pi.args[0].reg, pi.args[1].reg
	case isa.FmtRdImm8:
		in.A = pi.args[0].reg
		in.Imm, err = a.resolve(pi.args[1], pi.line, 8)
	case isa.FmtRdAddr:
		in.A = pi.args[0].reg
		in.Imm, err = a.resolve(pi.args[1], pi.line, 16)
	case isa.FmtAddrRs:
		in.Imm, err = a.resolve(pi.args[0], pi.line, 16)
		in.B = pi.args[1].reg
	case isa.FmtRdAddrRi:
		in.A = pi.args[0].reg
		in.Imm, err = a.resolve(pi.args[1], pi.line, 16)
		in.B = pi.args[2].reg
	case isa.FmtAddrRiRs:
		in.Imm, err = a.resolve(pi.args[0], pi.line, 16)
		in.A = pi.args[1].reg
		in.B = pi.args[2].reg
	case isa.FmtRd:
		in.A = pi.args[0].reg
	case isa.FmtRs:
		in.B = pi.args[0].reg
	case isa.FmtAddr:
		in.Imm, err = a.resolve(pi.args[0], pi.line, 16)
	case isa.FmtRdPort:
		in.A = pi.args[0].reg
		in.Imm, err = a.resolve(pi.args[1], pi.line, 8)
	case isa.FmtPortRs:
		in.Imm, err = a.resolve(pi.args[0], pi.line, 8)
		in.B = pi.args[1].reg
	case isa.FmtImm8:
		in.Imm, err = a.resolve(pi.args[0], pi.line, 8)
	}
	if err != nil {
		return isa.Instr{}, err
	}
	if verr := in.Validate(); verr != nil {
		return isa.Instr{}, a.errf(pi.line, "%v", verr)
	}
	return in, nil
}

// checkArity validates operand count and kinds against the opcode format.
func checkArity(op isa.Op, args []operand, a *assembler, line int) error {
	want := func(kinds ...operandKind) error {
		if len(args) != len(kinds) {
			return a.errf(line, "%s wants %d operands, got %d", op, len(kinds), len(args))
		}
		for i, k := range kinds {
			if args[i].kind != k {
				what := "an immediate/symbol"
				if k == opReg {
					what = "a register"
				}
				return a.errf(line, "%s operand %d must be %s", op, i+1, what)
			}
		}
		return nil
	}
	switch op.Spec().Format {
	case isa.FmtNone:
		return want()
	case isa.FmtRdRs:
		return want(opReg, opReg)
	case isa.FmtRdImm8, isa.FmtRdAddr, isa.FmtRdPort:
		return want(opReg, opImm)
	case isa.FmtAddrRs, isa.FmtPortRs:
		return want(opImm, opReg)
	case isa.FmtRdAddrRi:
		return want(opReg, opImm, opReg)
	case isa.FmtAddrRiRs:
		return want(opImm, opReg, opReg)
	case isa.FmtRd, isa.FmtRs:
		return want(opReg)
	case isa.FmtAddr, isa.FmtImm8:
		return want(opImm)
	}
	return a.errf(line, "internal: unhandled format for %s", op)
}

func stripComment(s string) string {
	inChar := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			inChar = !inChar
		case ';', '#':
			if !inChar {
				return s[:i]
			}
		}
	}
	return s
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func parseReg(s string) (uint8, bool) {
	if len(s) < 2 {
		return 0, false
	}
	if s[0] != 'r' && s[0] != 'R' {
		return 0, false
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegisters {
		return 0, false
	}
	return uint8(n), true
}

func parseInt(s string) (uint16, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		if len(s) != 3 {
			return 0, fmt.Errorf("bad char literal %q", s)
		}
		return uint16(s[1]), nil
	}
	v, err := strconv.ParseUint(s, 0, 16)
	if err != nil {
		return 0, err
	}
	return uint16(v), nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Registers are not identifiers.
	if _, isReg := parseReg(s); isReg {
		return false
	}
	return true
}
