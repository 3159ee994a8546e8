package alloctx

// framePointers reports that callerPCs walks the stack: the amd64 Go ABI
// keeps a frame pointer in every frame that calls another function.
const framePointers = true

// callerPCs fills pcs with the return addresses of the frames above its
// caller's, innermost first, by following the saved frame pointers, and
// returns how many it stored: fewer than len(pcs) only when the walk
// reached the goroutine's outermost frame. It returns -1 if a saved frame
// pointer does not climb the stack (a cgo callback's frames end the
// goroutine's chain that way). Implemented in stackwalk_amd64.s.
//
//go:noescape
func callerPCs(pcs []uintptr) int
