// Package prng implements the pseudo-random generator SFS uses in its
// algorithms and protocols (paper §3.1.3).
//
// The paper chose the DSS pseudo-random generator (FIPS 186 appendix
// 3) because it is based on SHA-1 and cannot be run backwards if its
// state is compromised: each output x is derived one-way from the key
// state, and the state update XKEY = (1 + XKEY + x) mod 2^b destroys
// the information needed to recover previous outputs.
//
// Seeding follows the paper's design: data from several external
// sources (the OS entropy device standing in for ps/netstat output, a
// nanosecond timer capturing scheduling entropy, and any caller-
// provided input such as keystrokes and inter-keystroke timings) is
// run through a SHA-1-based hash to produce a 512-bit seed.
package prng

import (
	"crypto/rand"
	"crypto/sha1"
	"encoding/binary"
	"math/big"
	"sync"
	"time"
)

const stateBytes = 64 // b = 512 bits

// Generator is a forward-secure deterministic random generator.
// It is safe for concurrent use.
type Generator struct {
	mu   sync.Mutex
	xkey [stateBytes]byte
}

// New returns a generator seeded from the environment: the OS entropy
// source, a nanosecond timer, and any extra caller-supplied entropy
// (for example keystrokes and inter-keystroke timings). It never
// fails; if the OS source is unavailable the timer and extra sources
// still contribute.
func New(extra ...[]byte) *Generator {
	g := &Generator{}
	pool := sha1.New()
	pool.Write([]byte("SFS-PRNG-seed"))
	var osr [64]byte
	if _, err := rand.Read(osr[:]); err == nil {
		pool.Write(osr[:])
	}
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], uint64(time.Now().UnixNano()))
	pool.Write(t[:])
	for _, e := range extra {
		pool.Write(e)
		binary.BigEndian.PutUint64(t[:], uint64(time.Now().UnixNano()))
		pool.Write(t[:])
	}
	// Expand the 20-byte pool digest to the 512-bit XKEY.
	d := pool.Sum(nil)
	for i := 0; i < stateBytes; i += sha1.Size {
		h := sha1.New()
		h.Write(d)
		h.Write([]byte{byte(i)})
		copy(g.xkey[i:], h.Sum(nil))
	}
	return g
}

// NewSeeded returns a generator with a deterministic seed, for tests
// and reproducible benchmarks only.
func NewSeeded(seed []byte) *Generator {
	g := &Generator{}
	for i := 0; i < stateBytes; i += sha1.Size {
		h := sha1.New()
		h.Write([]byte("seeded"))
		h.Write(seed)
		h.Write([]byte{byte(i)})
		copy(g.xkey[i:], h.Sum(nil))
	}
	return g
}

// step produces one 20-byte output block and advances the state.
// Callers hold g.mu.
func (g *Generator) step() [sha1.Size]byte {
	// x = G(t, XKEY): SHA-1 as the one-way function.
	var x [sha1.Size]byte
	h := sha1.New()
	h.Write(g.xkey[:])
	copy(x[:], h.Sum(nil))
	// XKEY = (1 + XKEY + x) mod 2^b, big-endian arithmetic.
	carry := uint16(1)
	for i := stateBytes - 1; i >= 0; i-- {
		v := uint16(g.xkey[i]) + carry
		if i >= stateBytes-sha1.Size {
			v += uint16(x[i-(stateBytes-sha1.Size)])
		}
		g.xkey[i] = byte(v)
		carry = v >> 8
	}
	return x
}

// Read fills p with pseudo-random bytes. It always returns len(p), nil.
func (g *Generator) Read(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(p)
	for len(p) > 0 {
		x := g.step()
		c := copy(p, x[:])
		p = p[c:]
	}
	return n, nil
}

// Bytes returns n pseudo-random bytes.
func (g *Generator) Bytes(n int) []byte {
	b := make([]byte, n)
	g.Read(b) //nolint:errcheck // cannot fail
	return b
}

// Uint32 returns a pseudo-random 32-bit value.
func (g *Generator) Uint32() uint32 {
	return binary.BigEndian.Uint32(g.Bytes(4))
}

// Int returns a uniform pseudo-random integer in [0, max).
func (g *Generator) Int(max *big.Int) *big.Int {
	if max.Sign() <= 0 {
		panic("prng: max must be positive")
	}
	bits := max.BitLen()
	bytes := (bits + 7) / 8
	mask := byte(0xff >> (uint(bytes*8) - uint(bits)))
	for {
		b := g.Bytes(bytes)
		b[0] &= mask
		v := new(big.Int).SetBytes(b)
		if v.Cmp(max) < 0 {
			return v
		}
	}
}
