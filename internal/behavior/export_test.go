package behavior

// The external test package reaches the internal test tables through
// these names.
var (
	SignednessBodies = signednessBodies
	CompileRegs      = compileRegs
)
