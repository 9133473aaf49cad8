package sha1mac

// useSHANI reports whether this CPU has the instructions blockSHANI
// runs on: the SHA extensions for the rounds and the message schedule,
// SSSE3 for PSHUFB, SSE4.1 for PINSRD/PEXTRD.
var useSHANI = func() bool {
	sha, ssse3, sse41 := x86Features()
	return sha && ssse3 && sse41
}()

// x86Features reads CPUID: leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9
// (SSSE3) and 19 (SSE4.1).
func x86Features() (sha, ssse3, sse41 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	ssse3 = ecx1&(1<<9) != 0
	sse41 = ecx1&(1<<19) != 0
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		sha = ebx7&(1<<29) != 0
	}
	return sha, ssse3, sse41
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// blockSHANI runs the SHA-1 compression function over every whole
// 64-byte block of p, updating h. A tail shorter than a block is
// ignored.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)
