// Package arc4 implements the alleged RC4 stream cipher as used by SFS.
//
// SFS assumes ARC4 is a pseudo-random generator and uses it both to
// encrypt file system traffic and as a keystream source for re-keying
// the per-message MAC (paper §3.1.3). The implementation differs from
// textbook RC4 in one deliberate way the paper calls out: it supports
// 20-byte keys by spinning the key schedule once for each 128 bits of
// key data, and the keystream is kept running for the duration of a
// session rather than being reset per message.
package arc4

import (
	"crypto/subtle"
	"fmt"
)

// block is how many keystream bytes XORKeyStream and Skip generate at a
// time into a stack buffer: big enough to amortise the call into the
// vectorised XOR, small enough to stay in L1 beside the 1 KiB state.
const block = 512

// Cipher is an ARC4 keystream generator. It is not safe for concurrent
// use; the secure channel serializes access.
//
// The permutation is held one entry per 32-bit word (1 KiB, +768 B over
// a byte table), as crypto/rc4 does: the swap's loads and stores are
// cheaper on words than on bytes — where this package's byte table ran
// at 274 MB/s, crypto/rc4's word table runs at ~360, and the block XOR
// adds the rest (EXPERIMENTS.md, "Crypto kernels").
type Cipher struct {
	s    [256]uint32
	i, j uint8
}

// New initializes a cipher from key, spinning the key schedule once per
// 128 bits (16 bytes) of key material, rounded up, so a 20-byte session
// key mixes the state twice.
func New(key []byte) (*Cipher, error) {
	if len(key) == 0 || len(key) > 256 {
		return nil, fmt.Errorf("arc4: invalid key size %d", len(key))
	}
	c := &Cipher{}
	for i := range c.s {
		c.s[i] = uint32(i)
	}
	spins := (len(key) + 15) / 16
	var j uint8
	for spin := 0; spin < spins; spin++ {
		for i := 0; i < 256; i++ {
			j += uint8(c.s[i]) + key[i%len(key)]
			c.s[i], c.s[j] = c.s[j], c.s[i]
		}
	}
	return c, nil
}

// keystream writes the next len(out) keystream bytes to out. It is the
// only loop that steps the generator. Indexing the [256]uint32 array
// with uint8 values and out with its own range index leaves no bounds
// check in the loop body.
func (c *Cipher) keystream(out []byte) {
	s := &c.s
	i, j := c.i, c.j
	for k := range out {
		i++
		x := s[i]
		j += uint8(x)
		y := s[j]
		s[i], s[j] = y, x
		out[k] = byte(s[uint8(x+y)])
	}
	c.i, c.j = i, j
}

// XORKeyStream XORs src with the next len(src) keystream bytes into
// dst, which must be at least as long as src and may alias it exactly
// (dst and src starting at the same byte) or not at all.
func (c *Cipher) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("arc4: output shorter than input")
	}
	var ks [block]byte
	for len(src) > 0 {
		n := min(len(src), block)
		c.keystream(ks[:n])
		subtle.XORBytes(dst[:n], src[:n], ks[:n])
		dst, src = dst[n:], src[n:]
	}
}

// KeyStream writes the next n keystream bytes into a fresh slice. SFS
// pulls 32 bytes from the session stream (not used for encryption) to
// re-key the MAC for each message.
func (c *Cipher) KeyStream(n int) []byte {
	out := make([]byte, n)
	c.keystream(out)
	return out
}

// KeyStreamInto fills out with the next len(out) keystream bytes,
// reusing the caller's buffer — the allocation-free form of KeyStream
// for the per-record MAC re-keying on the hot seal/open path.
func (c *Cipher) KeyStreamInto(out []byte) {
	c.keystream(out)
}

// Skip advances the keystream n bytes without producing output. The
// unencrypted channel mode uses it to keep its stream position aligned
// with the peer without allocating a throwaway buffer.
func (c *Cipher) Skip(n int) {
	var ks [block]byte
	for n > 0 {
		m := min(n, block)
		c.keystream(ks[:m])
		n -= m
	}
}
