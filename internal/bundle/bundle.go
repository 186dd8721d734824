// Package bundle persists a complete testing run — the lifecycle trace
// plus every node's binary and variable map — so the whole Sentomist
// workflow (mine, rank, inspect, localize) can run offline, long after the
// simulation, exactly like the paper's split between Avrora-side data
// acquisition and LIBSVM-side analysis.
package bundle

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"sentomist/internal/isa"
	"sentomist/internal/sim"
	"sentomist/internal/trace"
)

const magic = "SENTBDL1"

// Bundle is a serializable testing run.
type Bundle struct {
	Trace    *trace.Trace
	Programs map[int]*isa.Program
	// Vars maps node ID to its .var name → RAM address table, so
	// application counters remain inspectable offline.
	Vars map[int]map[string]uint16
	// Stats carries the recording scheduler's per-run counters (rounds,
	// jumps, parallel sections) so record-phase performance stays
	// diagnosable offline. Zero for bundles saved before the counters
	// existed; gob tolerates the field's absence in either direction.
	Stats sim.Stats
}

// Validate checks internal consistency: a program for every traced node,
// traces valid, variable addresses within RAM.
func (b *Bundle) Validate() error {
	if b.Trace == nil {
		return fmt.Errorf("bundle: no trace")
	}
	if err := b.Trace.Validate(); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	for _, nt := range b.Trace.Nodes {
		prog, ok := b.Programs[nt.NodeID]
		if !ok {
			return fmt.Errorf("bundle: node %d has a trace but no program", nt.NodeID)
		}
		if err := prog.Validate(); err != nil {
			return fmt.Errorf("bundle: node %d: %w", nt.NodeID, err)
		}
		if len(prog.Code) != nt.ProgramLen {
			return fmt.Errorf("bundle: node %d: program has %d instructions, trace expects %d",
				nt.NodeID, len(prog.Code), nt.ProgramLen)
		}
	}
	for id, vars := range b.Vars {
		for name, addr := range vars {
			if int(addr) >= isa.RAMSize {
				return fmt.Errorf("bundle: node %d var %q at %#04x outside RAM", id, name, addr)
			}
		}
	}
	return nil
}

// Write serializes the bundle (gzip-wrapped gob behind a magic header).
func (b *Bundle) Write(w io.Writer) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return fmt.Errorf("bundle: write magic: %w", err)
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(b); err != nil {
		return fmt.Errorf("bundle: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("bundle: close gzip: %w", err)
	}
	return nil
}

// Read deserializes a bundle written by Write.
func Read(r io.Reader) (*Bundle, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("bundle: read magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("bundle: bad magic %q (not a bundle file)", head)
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("bundle: open gzip: %w", err)
	}
	defer zr.Close()
	var b Bundle
	if err := gob.NewDecoder(zr).Decode(&b); err != nil {
		return nil, fmt.Errorf("bundle: decode: %w", err)
	}
	// Drain to EOF so the gzip footer (CRC32 + length) is verified: gob
	// stops reading once the value is decoded.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, fmt.Errorf("bundle: verify gzip checksum: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// SaveFile writes the bundle to path.
func (b *Bundle) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	bw := bufio.NewWriter(f)
	werr := b.Write(bw)
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// LoadFile reads a bundle from path.
func LoadFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
