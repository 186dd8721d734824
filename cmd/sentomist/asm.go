package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"sentomist/internal/apps"
	"sentomist/internal/asm"
	"sentomist/internal/isa"
)

// asmCmd is the developer tool for SVM-8 programs: it assembles a source
// file (or a bundled case-study program) and prints diagnostics, program
// statistics and optionally the disassembly. It is the quickest way to
// check an application before wiring it into a Scenario.
func asmCmd(fs *flag.FlagSet) runFunc {
	disasm := fs.Bool("d", false, "print the disassembly")
	builtin := fs.String("builtin", "", "inspect a bundled program: caseI, caseI-sink, caseII, caseII-source, caseIII")
	return func(args []string, stdout, _ io.Writer) error { return assemble(stdout, *disasm, *builtin, args) }
}

func assemble(w io.Writer, disasm bool, builtin string, args []string) error {
	var (
		name string
		src  string
	)
	switch {
	case builtin != "":
		prog, err := apps.BuiltinSource(builtin)
		if err != nil {
			return err
		}
		name, src = builtin, prog
	case len(args) == 1:
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		name, src = args[0], string(data)
	default:
		return usagef("want one source file or -builtin NAME")
	}

	result, err := asm.File(name, src)
	if err != nil {
		return err
	}
	p := result.Program
	fmt.Fprintf(w, "%s: %d instructions, %d vectors, %d tasks, %d variables, %d constants\n",
		name, len(p.Code), len(p.Vectors), len(p.Tasks), len(result.Vars), len(result.Consts))

	// Cycle budget per opcode class: a quick feel for where time goes.
	byOp := map[isa.Op]int{}
	for _, in := range p.Code {
		byOp[in.Op]++
	}
	type row struct {
		op isa.Op
		n  int
	}
	rows := make([]row, 0, len(byOp))
	for op, n := range byOp {
		rows = append(rows, row{op, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].op < rows[j].op
	})
	var parts []string
	for _, r := range rows {
		parts = append(parts, fmt.Sprintf("%s×%d", r.op, r.n))
	}
	fmt.Fprintf(w, "opcode mix: %s\n", strings.Join(parts, " "))

	if len(result.Vars) > 0 {
		names := make([]string, 0, len(result.Vars))
		for v := range result.Vars {
			names = append(names, v)
		}
		sort.Slice(names, func(i, j int) bool { return result.Vars[names[i]] < result.Vars[names[j]] })
		fmt.Fprintln(w, "variables:")
		for _, v := range names {
			fmt.Fprintf(w, "  %-16s %#04x\n", v, result.Vars[v])
		}
	}
	if disasm {
		fmt.Fprintln(w, "\ndisassembly:")
		fmt.Fprint(w, p.Disassemble())
	}
	return nil
}
