package kernel

import _ "embed" // for Source

// Source is the text of kernel.go, which code generators paste into the
// programs they emit so that generated code runs the same semantics.
//
//go:embed kernel.go
var Source string
