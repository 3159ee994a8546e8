#include "textflag.h"

// Frame pointers a walk follows must climb the goroutine's stack by at
// most this much per frame. A cgo callback's frames link to the system
// stack and then to C frames, whose saved frame pointers may be anything;
// the walk gives up there instead of reading through them.
#define MAXFRAME 0x100000

// func callerPCs(pcs []uintptr) int
//
// No frame of its own, so BP is still the caller's frame pointer. In a Go
// frame, 0(BP) holds the caller's saved frame pointer (0 at a goroutine's
// outermost frame) and 8(BP) the return address into the caller.
TEXT ·callerPCs(SB), NOSPLIT|NOFRAME, $0-32
	MOVQ	pcs_base+0(FP), DI
	MOVQ	pcs_len+8(FP), CX
	MOVQ	BP, AX
	XORQ	DX, DX
loop:
	CMPQ	DX, CX
	JGE	done
	TESTQ	AX, AX
	JZ	done
	MOVQ	8(AX), BX
	MOVQ	BX, (DI)(DX*8)
	INCQ	DX
	MOVQ	0(AX), BX
	TESTQ	BX, BX
	JZ	next
	MOVQ	BX, SI
	SUBQ	AX, SI
	JBE	broken
	CMPQ	SI, $MAXFRAME
	JA	broken
next:
	MOVQ	BX, AX
	JMP	loop
broken:
	MOVQ	$-1, DX
done:
	MOVQ	DX, ret+24(FP)
	RET
