// Package heap implements Chameleon's collection-aware heap substrate: an
// explicit size model reproducing JVM object layout, a simulated managed
// heap with allocation accounting, and GC cycles that report the live /
// used / core statistics of paper Tables 1 and 3 from each collection's
// semantic map.
//
// The paper instruments IBM J9's parallel mark-sweep collector and
// piggybacks its statistics on marking; here the collector is simulated
// (Go's GC cannot be instrumented) and the statistics piggyback on the
// allocation path: registrations, footprint pushes and frees keep running
// per-context sums, which equal a walk over the reachable objects.
package heap

// SizeModel describes a simulated object layout. All collection footprints
// (live/used/core) are computed against a SizeModel, which lets the
// simulator reproduce the paper's 32-bit JVM numbers (e.g. a hash entry
// object of 24 bytes: object header plus three pointer fields, §2.3)
// or a 64-bit layout.
type SizeModel struct {
	// ObjectHeader is the per-object header size in bytes.
	ObjectHeader int64
	// ArrayHeader is the per-array header size in bytes (object header
	// plus the length field).
	ArrayHeader int64
	// Pointer is the reference size in bytes.
	Pointer int64
	// Int is the size of a plain int field in bytes.
	Int int64
	// Align is the allocation alignment in bytes; every object size is
	// rounded up to a multiple of it.
	Align int64
}

// Model32 mirrors a 32-bit JVM layout: 8-byte headers, 4-byte references,
// 8-byte alignment. Under this model a linked-list or hash entry (header +
// three pointers) occupies 24 bytes, matching §2.3 of the paper.
var Model32 = SizeModel{ObjectHeader: 8, ArrayHeader: 12, Pointer: 4, Int: 4, Align: 8}

// Model64 mirrors a 64-bit JVM layout without compressed oops.
var Model64 = SizeModel{ObjectHeader: 16, ArrayHeader: 24, Pointer: 8, Int: 4, Align: 8}

// AlignUp rounds n up to the model's allocation alignment.
func (m SizeModel) AlignUp(n int64) int64 {
	if m.Align <= 1 {
		return n
	}
	rem := n % m.Align
	if rem == 0 {
		return n
	}
	return n + m.Align - rem
}

// Object reports the aligned size of an object with fieldBytes bytes of
// instance fields.
func (m SizeModel) Object(fieldBytes int64) int64 {
	return m.AlignUp(m.ObjectHeader + fieldBytes)
}

// ObjectFields reports the aligned size of an object with nPtr reference
// fields and nInt int fields.
func (m SizeModel) ObjectFields(nPtr, nInt int64) int64 {
	return m.Object(nPtr*m.Pointer + nInt*m.Int)
}

// PtrArray reports the aligned size of an array of n references.
func (m SizeModel) PtrArray(n int64) int64 {
	return m.AlignUp(m.ArrayHeader + n*m.Pointer)
}

// IntArray reports the aligned size of an array of n ints.
func (m SizeModel) IntArray(n int64) int64 {
	return m.AlignUp(m.ArrayHeader + n*m.Int)
}

// Footprint is the triple of space measures Chameleon computes for every
// collection object (paper Fig. 2): Live is the total bytes occupied by the
// collection and its internal objects; Used is the part of those bytes that
// currently stores application entries; Core is the lower bound — the bytes
// an ideal pointer array holding exactly the content would need.
type Footprint struct {
	Live int64
	Used int64
	Core int64
}

// Add returns the component-wise sum of two footprints.
func (f Footprint) Add(o Footprint) Footprint {
	return Footprint{Live: f.Live + o.Live, Used: f.Used + o.Used, Core: f.Core + o.Core}
}

// Max returns the component-wise maximum of two footprints.
func (f Footprint) Max(o Footprint) Footprint {
	return Footprint{Live: max(f.Live, o.Live), Used: max(f.Used, o.Used), Core: max(f.Core, o.Core)}
}

// Overhead reports Live - Used: bytes allocated by the implementation that
// do not store application entries. This is the paper's per-context
// space-saving potential (totLive - totUsed).
func (f Footprint) Overhead() int64 { return f.Live - f.Used }
