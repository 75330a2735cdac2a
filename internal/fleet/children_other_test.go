//go:build !linux

package fleet

import "testing"

// assertNoChildren checks for leftover child processes on Linux only.
func assertNoChildren(t *testing.T) {}
