package fleet

import (
	"errors"
	"syscall"
	"testing"
)

// assertNoChildren fails if this process has any child left, running or
// unreaped.
func assertNoChildren(t *testing.T) {
	t.Helper()
	var ws syscall.WaitStatus
	if pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil); !errors.Is(err, syscall.ECHILD) {
		t.Fatalf("child processes remain: wait4 returned pid %d, err %v", pid, err)
	}
}
