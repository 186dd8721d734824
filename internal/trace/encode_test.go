package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIsJSONPath pins the suffix dispatch SaveFile/LoadFile share.
func TestIsJSONPath(t *testing.T) {
	for path, want := range map[string]bool{
		"run.json":        true,
		"a/b/run.json":    true,
		".json":           true,
		"run.trace":       false,
		"run.json.trace":  false,
		"jsonrun":         false,
		"run.JSON":        false, // extension match is case-sensitive, as before
		"":                false,
		"run.json/trace":  false,
		"trailing.jsonx":  false,
		"x.bundle":        false,
		"deep/x/y/z.json": true,
	} {
		if got := isJSONPath(path); got != want {
			t.Errorf("isJSONPath(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestLoadFileBadMagic writes a file whose body is not a trace container
// and checks both the binary and JSON load paths reject it with an error
// instead of a panic or a zero trace.
func TestLoadFileBadMagic(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bin, []byte("XXXXXXXXnot a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bin); err == nil {
		t.Fatal("binary load accepted a file with the wrong magic")
	} else if !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("want a bad-magic error, got: %v", err)
	}
	j := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(j, []byte("{ definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(j); err == nil {
		t.Fatal("json load accepted malformed input")
	}
}

// TestLoadFileTruncatedGzip saves a valid binary trace, truncates the gzip
// payload mid-stream, and checks LoadFile surfaces the corruption.
func TestLoadFileTruncatedGzip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{len(whole) - 1, len(whole) / 2, len(binaryMagic) + 3} {
		path := filepath.Join(t.TempDir(), "cut.trace")
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(whole))
		}
	}
}

// TestSaveFileReportsCreateError checks the error path when the target
// path cannot be created.
func TestSaveFileReportsCreateError(t *testing.T) {
	tr := sampleTrace()
	if err := tr.SaveFile(filepath.Join(t.TempDir(), "missing-dir", "t.trace")); err == nil {
		t.Fatal("save into a nonexistent directory succeeded")
	}
}

// TestLoadFileReportsOpenError checks the error path when the source path
// does not exist.
func TestLoadFileReportsOpenError(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.trace")); err == nil {
		t.Fatal("load of a nonexistent file succeeded")
	}
}

// intervalTrace is one node with eight Int/Reti intervals and the given
// program length; the markers carry no deltas, so no PC bound applies.
func intervalTrace(programLen int) *Trace {
	n := &NodeTrace{NodeID: 3, ProgramLen: programLen}
	for i := 0; i < 8; i++ {
		c := uint64(100 * (i + 1))
		n.Markers = append(n.Markers, Marker{Kind: Int, Arg: 1, Cycle: c}, Marker{Kind: Reti, Cycle: c + 50})
	}
	return &Trace{Seed: 1, Cycles: 1000, Nodes: []*NodeTrace{n}}
}

// TestDecodersRejectUnboundedProgramLen: a node claiming a program longer
// than the 16-bit code space, or a negative one, is rejected by both
// decoders with an error naming the node, instead of reaching the miner
// (which sizes per-interval scratch by ProgramLen).
func TestDecodersRejectUnboundedProgramLen(t *testing.T) {
	for _, programLen := range []int{1 << 26, -5, 1 << 40} {
		tr := intervalTrace(programLen)
		var bin, js bytes.Buffer
		if err := tr.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		for name, read := range map[string]func() (*Trace, error){
			"binary": func() (*Trace, error) { return ReadBinary(&bin) },
			"json":   func() (*Trace, error) { return ReadJSON(&js) },
		} {
			_, err := read()
			if err == nil {
				t.Fatalf("%s: ProgramLen %d accepted", name, programLen)
			}
			if !strings.Contains(err.Error(), "node 3") || !strings.Contains(err.Error(), "program length") {
				t.Fatalf("%s: ProgramLen %d: error %q does not name the node and its program length", name, programLen, err)
			}
		}
	}
	for _, programLen := range []int{0, 0xffff} {
		if err := intervalTrace(programLen).Validate(); err != nil {
			t.Fatalf("ProgramLen %d rejected: %v", programLen, err)
		}
	}
}
