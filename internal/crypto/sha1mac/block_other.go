//go:build !amd64

package sha1mac

// useSHANI is false off amd64: crypto/sha1 computes every MAC there
// (on arm64 with the ARMv8 SHA-1 instructions).
const useSHANI = false

func blockSHANI(h *[5]uint32, p []byte) {
	panic("sha1mac: no SHA extensions on this architecture")
}
