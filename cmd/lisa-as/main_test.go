package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"golisa/internal/core"
)

// The assembler exits through cli.Fail/cli.Usage, so the tests re-exec the
// test binary as the tool: with LISA_AS_TOOL=1 in the environment, TestMain
// runs main() on the real command line instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("LISA_AS_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTool re-execs this binary as lisa-as with the given arguments.
func runTool(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LISA_AS_TOOL=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running tool: %v", err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

const countdown = `
start:  LDI B1, 1
        LDI A1, 3
loop:   SUB A1, A1, B1
        BNZ A1, loop
        NOP
        NOP
        HALT
`

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// parseHex extracts the instruction words from the tool's default output
// (one hex word per line under a "; origin" header).
func parseHex(t *testing.T, out string) []uint64 {
	t.Helper()
	var words []uint64
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		w, err := strconv.ParseUint(line, 16, 64)
		if err != nil {
			t.Fatalf("bad hex line %q: %v", line, err)
		}
		words = append(words, w)
	}
	return words
}

// TestAssembleRoundtrip assembles through the CLI, disassembles every word
// with the library, reassembles the disassembly, and checks the words
// survive the full syntax/coding roundtrip.
func TestAssembleRoundtrip(t *testing.T) {
	out, stderr, code := runTool(t, "-model", "simple16", writeProg(t, countdown))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "; origin 0x0, 7 words") {
		t.Errorf("missing origin header in %q", out)
	}
	words := parseHex(t, out)
	if len(words) != 7 {
		t.Fatalf("got %d words, want 7", len(words))
	}

	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.NewDisassembler()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, w := range words {
		text, err := d.Disassemble(w)
		if err != nil {
			t.Fatalf("disassemble %#x: %v", w, err)
		}
		sb.WriteString(text + "\n")
	}
	a, err := m.NewAssembler()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Assemble(sb.String())
	if err != nil {
		t.Fatalf("reassembling disassembly %q: %v", sb.String(), err)
	}
	for i, w := range prog.Words {
		if w != words[i] {
			t.Errorf("word %d: roundtrip %#x != original %#x", i, w, words[i])
		}
	}
}

// TestListing checks -listing emits one disassembly line per word.
func TestListing(t *testing.T) {
	out, stderr, code := runTool(t, "-model", "simple16", "-listing", writeProg(t, countdown))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Fatalf("listing has %d lines, want 7:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "HALT") || !strings.Contains(out, "SUB") {
		t.Errorf("listing lacks disassembly:\n%s", out)
	}
}

func TestErrorExits(t *testing.T) {
	// No program argument: usage, exit 2.
	if _, stderr, code := runTool(t); code != 2 || !strings.Contains(stderr, "usage:") {
		t.Errorf("no args: exit %d stderr %q, want usage exit 2", code, stderr)
	}
	// Missing input file: exit 1.
	if _, stderr, code := runTool(t, "nosuch.s"); code != 1 || stderr == "" {
		t.Errorf("missing file: exit %d stderr %q, want error exit 1", code, stderr)
	}
	// Bad assembly: exit 1 with a diagnostic.
	bad := writeProg(t, "THIS IS NOT ASSEMBLY\n")
	if _, stderr, code := runTool(t, bad); code != 1 || stderr == "" {
		t.Errorf("bad asm: exit %d stderr %q, want error exit 1", code, stderr)
	}
	// An image past the end of program memory: exit 1 with a diagnostic,
	// not an attempt to emit 2^39 words.
	huge := writeProg(t, "LDI B1, 1\n.space 0x7fffffffff\nHALT\n")
	if _, stderr, code := runTool(t, huge); code != 1 || !strings.Contains(stderr, "past the end of program memory") {
		t.Errorf("huge .space: exit %d stderr %q, want error exit 1", code, stderr)
	}
	// Unknown model: exit 1.
	if _, _, code := runTool(t, "-model", "nosuch", writeProg(t, countdown)); code != 1 {
		t.Errorf("bad model: exit %d, want 1", code)
	}
}
