// Package sha1mac implements the SHA-1-based message authentication
// code SFS uses to guarantee the integrity of file system traffic
// (paper §3.1.3).
//
// The MAC is re-keyed for every message with 32 bytes of data pulled
// from the session's ARC4 stream (bytes that are never used for
// encryption). It is computed over the length and plaintext contents
// of each RPC message; the length, message, and MAC all subsequently
// get encrypted by the channel layer. The construction is an
// envelope MAC: SHA-1(k1 || SHA-1(k1 || k2 || data)) with the 32-byte
// per-message key split into k1 and k2, which is sufficient in the
// random-oracle model the paper assumes for SHA-1.
package sha1mac

import (
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
	"hash"
	"sync"
)

// Size is the MAC length in bytes.
const Size = sha1.Size

// KeySize is the per-message key length pulled from the ARC4 stream.
const KeySize = 32

// macState carries a reusable hash plus the scratch arrays the MAC
// needs. Pooling the scratch alongside the digest matters: a stack
// array handed to the hash.Hash interface escapes, so without the pool
// every message would pay several small heap allocations — and the MAC
// runs once per sealed record on the hot wire path.
type macState struct {
	h    hash.Hash
	ln   [8]byte
	isum [Size]byte
	out  [Size]byte
}

// statePool is the one place the SHA-1 implementation is chosen: the
// digest on the x86 SHA extensions where CPUID reports them, and
// crypto/sha1 everywhere else. Both compute the same function, so the
// choice never shows on the wire.
var statePool = sync.Pool{New: func() interface{} {
	if useSHANI {
		return &macState{h: newDigest()}
	}
	return &macState{h: sha1.New()}
}}

// Sum computes the MAC of data under the 32-byte per-message key. It
// includes the message length in the hashed input, as the paper
// specifies ("the MAC is computed on the length and plaintext contents
// of each RPC message").
func Sum(key, data []byte) [Size]byte {
	if len(key) != KeySize {
		panic("sha1mac: key must be 32 bytes")
	}
	st := statePool.Get().(*macState)
	binary.BigEndian.PutUint64(st.ln[:], uint64(len(data)))
	st.h.Reset()
	st.h.Write(key[:16])
	st.h.Write(key[16:])
	st.h.Write(st.ln[:])
	st.h.Write(data)
	st.h.Sum(st.isum[:0])
	st.h.Reset()
	st.h.Write(key[:16])
	st.h.Write(st.isum[:])
	st.h.Sum(st.out[:0])
	out := st.out
	statePool.Put(st)
	return out
}

// SumVec computes the MAC of the concatenation of segs under the
// 32-byte per-message key, without materializing the concatenation:
// SHA-1 is a streaming hash, so feeding the segments in order yields
// exactly Sum(key, concat(segs)). This is what lets the secure
// channel seal a scatter-gather record without first flattening it.
func SumVec(key []byte, segs [][]byte) [Size]byte {
	if len(key) != KeySize {
		panic("sha1mac: key must be 32 bytes")
	}
	var total uint64
	for _, s := range segs {
		total += uint64(len(s))
	}
	st := statePool.Get().(*macState)
	binary.BigEndian.PutUint64(st.ln[:], total)
	st.h.Reset()
	st.h.Write(key[:16])
	st.h.Write(key[16:])
	st.h.Write(st.ln[:])
	for _, s := range segs {
		st.h.Write(s)
	}
	st.h.Sum(st.isum[:0])
	st.h.Reset()
	st.h.Write(key[:16])
	st.h.Write(st.isum[:])
	st.h.Sum(st.out[:0])
	out := st.out
	statePool.Put(st)
	return out
}

// Verify reports whether mac is the correct MAC for data under key,
// in constant time.
func Verify(key, data, mac []byte) bool {
	if len(mac) != Size {
		return false
	}
	want := Sum(key, data)
	return subtle.ConstantTimeCompare(want[:], mac) == 1
}
