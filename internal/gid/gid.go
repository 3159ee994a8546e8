// Package gid derives a cheap, approximate goroutine-identity hash.
//
// The heap spreads its running sums over a few stripes and picks one by
// the calling goroutine, on paths that run on every registration and
// footprint push. runtime.Goid is not exported and runtime.Stack is far
// too slow, so we use the classic trick: the address of a stack-allocated
// byte identifies the executing goroutine's stack. Dropping the low bits
// maps every address inside one stack block to the same value, making the
// hash stable across call depths of a few KB.
//
// The hash is approximate in two benign ways: a goroutine whose stack grows
// past a block boundary (or is moved by the runtime) changes hash, and two
// goroutines could in principle recycle the same stack allocation. Either
// only changes which stripe a change lands in, never a result.
package gid

import "unsafe"

// stackBlockShift drops the low 11 bits (2 KiB — the runtime's initial
// goroutine stack size), so addresses within one small stack collapse to one
// identity.
const stackBlockShift = 11

// Hash returns the identity hash of the calling goroutine. It never
// allocates and costs a handful of instructions.
func Hash() uint64 {
	var probe byte
	return uint64(uintptr(unsafe.Pointer(&probe)) >> stackBlockShift)
}
