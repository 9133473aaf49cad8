package sha1mac

import (
	"crypto/sha1"
	"encoding/binary"
)

// digest is a SHA-1 hash.Hash whose compression function runs on the
// x86 SHA extensions (blockSHANI). Go's crypto/sha1 never uses them,
// so on a host that has them this halves the MAC's per-byte cost. The
// digest is only built where useSHANI is true (statePool.New); every
// other host MACs with crypto/sha1 itself.
type digest struct {
	h   [5]uint32
	x   [sha1.BlockSize]byte // a partial block awaiting its last bytes
	nx  int
	len uint64
}

func newDigest() *digest {
	d := new(digest)
	d.Reset()
	return d
}

func (d *digest) Reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.nx = 0
	d.len = 0
}

func (d *digest) Size() int { return sha1.Size }

func (d *digest) BlockSize() int { return sha1.BlockSize }

// Write hashes p. Whole blocks go from p to the block function as they
// lie; only a head that completes a buffered block and a tail shorter
// than one are copied.
func (d *digest) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		p = p[c:]
		if d.nx < sha1.BlockSize {
			return n, nil
		}
		blockSHANI(&d.h, d.x[:])
		d.nx = 0
	}
	if whole := len(p) &^ (sha1.BlockSize - 1); whole > 0 {
		blockSHANI(&d.h, p[:whole])
		p = p[whole:]
	}
	d.nx = copy(d.x[:], p)
	return n, nil
}

// Sum appends the digest of the bytes written so far to in, leaving
// the running state as it was.
func (d *digest) Sum(in []byte) []byte {
	d0 := *d
	sum := d0.checkSum()
	return append(in, sum[:]...)
}

// checkSum pads the message (FIPS 180-4 §5.1.1): a one bit, zeros up
// to 56 bytes mod 64, then the length in bits, big-endian.
func (d *digest) checkSum() [sha1.Size]byte {
	bits := d.len << 3
	var pad [sha1.BlockSize + 8]byte
	pad[0] = 0x80
	padLen := sha1.BlockSize - int(d.len%sha1.BlockSize)
	if padLen <= 8 {
		padLen += sha1.BlockSize
	}
	binary.BigEndian.PutUint64(pad[padLen-8:], bits)
	d.Write(pad[:padLen])

	var out [sha1.Size]byte
	for i, v := range d.h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}
