#include "textflag.h"

// SHA-1 on the x86 SHA extensions, after Intel's reference schedule
// ("Intel SHA Extensions", Gulley et al., 2013).
//
// X0 holds ABCD with A in the high dword (PSHUFD $0x1b of h[0..3]).
// E lives in the high dword of X1 or X2: each four-round group adds E
// (SHA1NEXTE) into one of them and saves ABCD in the other for the
// next group, so the two swap roles every group. X3-X6 hold the
// sixteen-word message window, byte-swapped by PSHUFB with X7 so that
// W[0] is the high dword. Group g runs SHA1RNDS4 $(g/5) and extends
// the schedule ahead of itself: SHA1MSG1 in groups 1-16, PXOR in
// 2-17, SHA1MSG2 in 3-18. X8 and X9 keep E and ABCD of the block's
// start for the final addition.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ      h+0(FP), DI
	MOVQ      p_base+8(FP), SI
	MOVQ      p_len+16(FP), DX
	ANDQ      $~63, DX
	JZ        done
	ADDQ      SI, DX // end of the last whole block

	MOVOU     (DI), X0
	PSHUFD    $0x1b, X0, X0
	PXOR      X1, X1
	PINSRD    $3, 16(DI), X1
	MOVOU     flipmask<>(SB), X7

loop:
	MOVO      X1, X8
	MOVO      X0, X9

	// Rounds 0-3
	MOVOU     0(SI), X3
	PSHUFB    X7, X3
	PADDL     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-15
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-19
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 20-23
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 24-27
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 28-31
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 32-35
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 36-39
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 40-43
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 44-47
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 48-51
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 52-55
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 56-59
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 60-63
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $3, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 64-67
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $3, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 68-71
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0


	SHA1NEXTE X8, X1
	PADDL     X9, X0

	ADDQ      $64, SI
	CMPQ      SI, DX
	JB        loop

	PSHUFD    $0x1b, X0, X0
	MOVOU     X0, (DI)
	PEXTRD    $3, X1, 16(DI)

done:
	RET

// flipmask reverses the sixteen bytes of a message quarter: four
// big-endian words become little-endian dwords, W[0] highest.
DATA flipmask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipmask<>+8(SB)/8, $0x0001020304050607
GLOBL flipmask<>(SB), RODATA|NOPTR, $16
