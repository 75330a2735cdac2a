package cli

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// reexecEnv re-runs this test binary with the env var set so Common.Load
// executes in a real process whose os.Exit codes and stderr we can
// observe — FailUsage exits, so mode resolution cannot be exercised
// in-process.
const reexecEnv = "GOLISA_CLI_TEST_LOAD_ARGS"

// TestModeResolutionExitCodes pins the usage-error contract of mode
// resolution: an unknown -mode, or a mode-specific flag without its mode,
// must exit 2 (not 1) and name every valid mode, so scripts and CI can
// tell a bad invocation from a failed run and the operator can see the
// full vocabulary without opening the help text.
func TestModeResolutionExitCodes(t *testing.T) {
	if argStr := os.Getenv(reexecEnv); argStr != "" {
		var c Common
		fs := flag.NewFlagSet("reexec", flag.ExitOnError)
		c.Register(fs)
		if err := fs.Parse(strings.Fields(argStr)); err != nil {
			os.Exit(3)
		}
		c.Load()
		os.Exit(0)
	}

	allModes := []string{"interpretive", "compiled", "generated"}
	for _, tc := range []struct {
		name     string
		args     string
		exitCode int
		stderr   []string
	}{
		{
			name:     "unknown mode",
			args:     "-mode warp",
			exitCode: 2,
			stderr:   append([]string{`unknown mode "warp"`}, allModes...),
		},
		{
			name:     "gen-cache without generated mode",
			args:     "-gen-cache /tmp/x",
			exitCode: 2,
			stderr:   append([]string{"-gen-cache applies only to -mode generated"}, allModes...),
		},
		{
			name:     "gen-cache with explicit non-generated mode",
			args:     "-mode prebound -gen-cache /tmp/x",
			exitCode: 2,
			stderr:   append([]string{"-gen-cache applies only to -mode generated"}, allModes...),
		},
		{
			name:     "generated mode with gen-cache is valid",
			args:     "-mode generated -gen-cache /tmp/x",
			exitCode: 0,
		},
		{
			name:     "plain valid mode",
			args:     "-mode interpretive",
			exitCode: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "^TestModeResolutionExitCodes$")
			cmd.Env = append(os.Environ(), reexecEnv+"="+tc.args)
			out, err := cmd.CombinedOutput()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("re-exec: %v\n%s", err, out)
			}
			if code != tc.exitCode {
				t.Fatalf("args %q: exit %d, want %d\noutput:\n%s", tc.args, code, tc.exitCode, out)
			}
			for _, want := range tc.stderr {
				if !strings.Contains(string(out), want) {
					t.Errorf("args %q: output missing %q\noutput:\n%s", tc.args, want, out)
				}
			}
		})
	}
}
