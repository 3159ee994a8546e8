//go:build !amd64

package alloctx

// framePointers reports that callerPCs does not walk the stack here, so
// CaptureDynamic resolves every capture with runtime.Callers.
const framePointers = false

func callerPCs([]uintptr) int { return 0 }
