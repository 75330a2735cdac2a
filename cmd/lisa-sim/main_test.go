package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lisa-sim exits through cli.Fail/cli.Usage, so the tests re-exec the
// test binary as the tool: with LISA_SIM_TOOL=1 in the environment,
// TestMain runs main() on the real command line instead of the suite.
func TestMain(m *testing.M) {
	if os.Getenv("LISA_SIM_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTool re-execs this binary as lisa-sim with the given arguments.
func runTool(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LISA_SIM_TOOL=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("lisa-sim %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	return out.String(), errb.String()
}

var stepsLine = regexp.MustCompile(`; (\d+) control steps`)

func controlSteps(t *testing.T, out string) string {
	t.Helper()
	m := stepsLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no control-step line in output:\n%s", out)
	}
	return m[1]
}

// TestGeneratedWithObserverFlagRunsInProcess: a generated-mode run asked
// for an observer's output cannot serve it from a runner subprocess, so
// it runs on the compiled engine, says so, names that engine on its step
// line, writes the output and counts the same control steps as -mode
// compiled.
func TestGeneratedWithObserverFlagRunsInProcess(t *testing.T) {
	prog := filepath.Join("..", "..", "examples", "fir", "prog", "fir.s")
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.txt")
	gen, stderr := runTool(t, "-mode", "generated", "-gen-cache", filepath.Join(dir, "cache"), "-metrics", metrics, prog)
	if !strings.Contains(stderr, "-metrics needs the in-process simulator") {
		t.Errorf("no fallback notice naming -metrics on stderr:\n%s", stderr)
	}
	if !strings.Contains(gen, "control steps (compiled mode)") {
		t.Errorf("step line does not name the compiled engine:\n%s", gen)
	}
	if fi, err := os.Stat(metrics); err != nil || fi.Size() == 0 {
		t.Fatalf("-metrics file not written: %v", err)
	}
	compiled, _ := runTool(t, "-mode", "compiled", prog)
	if g, c := controlSteps(t, gen), controlSteps(t, compiled); g != c {
		t.Fatalf("generated run with -metrics: %s control steps, compiled: %s", g, c)
	}
}
