package arc4

import (
	"bytes"
	"crypto/rc4"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
)

// edgeLens straddle the cipher's internal keystream block (512 bytes)
// and include the largest sealed record the NFS path produces (8 KiB
// payload + 4-byte length + 16-byte MAC).
var edgeLens = []int{0, 1, 511, 512, 513, 8212}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

// Keys of 16 bytes or fewer get exactly one spin, so our cipher must
// match the stdlib's RC4 for them — at every length, into a separate
// destination and in place.
func TestMatchesRC4ForShortKeys(t *testing.T) {
	for _, keyLen := range []int{1, 5, 8, 13, 16} {
		key := patterned(keyLen)
		for _, n := range edgeLens {
			src := patterned(n)
			ref, err := rc4.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, n)
			ref.XORKeyStream(want, src)

			ours, err := New(key)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, n)
			ours.XORKeyStream(got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("key len %d, %d bytes: diverges from RC4", keyLen, n)
			}
			if !bytes.Equal(src, patterned(n)) {
				t.Fatalf("key len %d, %d bytes: src modified", keyLen, n)
			}

			ours, _ = New(key)
			inPlace := bytes.Clone(src)
			ours.XORKeyStream(inPlace, inPlace)
			if !bytes.Equal(inPlace, want) {
				t.Fatalf("key len %d, %d bytes: dst==src diverges from RC4", keyLen, n)
			}
		}
	}
}

// refStream is textbook byte-table RC4 with SFS's one key-schedule
// spin per 16 key bytes: the oracle for keys crypto/rc4 cannot check.
func refStream(key []byte, n int) []byte {
	var s [256]byte
	for i := range s {
		s[i] = byte(i)
	}
	var j uint8
	for spin := 0; spin < (len(key)+15)/16; spin++ {
		for i := 0; i < 256; i++ {
			j += s[i] + key[i%len(key)]
			s[i], s[j] = s[j], s[i]
		}
	}
	out := make([]byte, n)
	var i uint8
	j = 0
	for k := range out {
		i++
		j += s[i]
		s[i], s[j] = s[j], s[i]
		out[k] = s[s[i]+s[j]]
	}
	return out
}

// Keystream bytes for the 20-byte double-spin schedule, recorded from
// the byte-table implementation this package had before the word-state
// rewrite. Any session key in flight depends on these not moving.
func TestTwentyByteKeyKnownAnswers(t *testing.T) {
	key := make([]byte, 20)
	for i := range key {
		key[i] = byte(i)
	}
	c, _ := New(key)
	ks := c.KeyStream(8212)
	if got, want := hex.EncodeToString(ks[:32]), "975b9ec01179e1f02e4b204370f72b6ab8a0e6d08cd57b649dc08ac9bd1b240f"; got != want {
		t.Errorf("first 32 bytes = %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(ks[8180:]), "a83f8d35342b427cbc8254fb660a6772644c6b7ffe5ee5adb30e7149a05440b4"; got != want {
		t.Errorf("bytes 8180..8211 = %s, want %s", got, want)
	}
	if got, want := fmt.Sprintf("%x", sha1.Sum(ks)), "868238bd87e0786d26f6c35331c4893fca89231f"; got != want {
		t.Errorf("sha1 of 8212 keystream bytes = %s, want %s", got, want)
	}
	c, _ = New([]byte("session-key-twenty!!"))
	if got, want := hex.EncodeToString(c.KeyStream(64)), "31268c6e94cb906a1c0c8f6ed06503698a93b9f2a253d85021fefe48e23abf7868cc7f03d3bde48cca10cf7b07772fd9a7a8103a9488737406ec3ef3098f2cc5"; got != want {
		t.Errorf("session-key stream = %s, want %s", got, want)
	}
	for _, keyLen := range []int{17, 20, 32, 33, 256} {
		key := patterned(keyLen)
		c, _ := New(key)
		if !bytes.Equal(c.KeyStream(1500), refStream(key, 1500)) {
			t.Errorf("key len %d: diverges from the multi-spin reference", keyLen)
		}
	}
}

// XORKeyStream, KeyStreamInto and Skip share one generator: any
// interleaving of them must consume one continuous stream, whatever
// the call sizes are relative to the internal block.
func TestInterleavedCallsAreOneStream(t *testing.T) {
	key := []byte("0123456789abcdefghij")
	const total = 3 * 8212
	ref := refStream(key, total)
	c, _ := New(key)
	pos := 0
	sizes := []int{32, 4, 8192, 16, 0, 1, 511, 513, 512, 700, 3, 1024}
	for step := 0; pos < total; step++ {
		n := sizes[step%len(sizes)]
		if pos+n > total {
			n = total - pos
		}
		want := ref[pos : pos+n]
		switch step % 3 {
		case 0:
			out := patterned(n) // KeyStreamInto must overwrite, not XOR
			c.KeyStreamInto(out)
			if !bytes.Equal(out, want) {
				t.Fatalf("step %d: KeyStreamInto(%d) at offset %d diverges", step, n, pos)
			}
		case 1:
			src := patterned(n)
			dst := make([]byte, n+3) // longer dst: only len(src) bytes are written
			c.XORKeyStream(dst, src)
			for i := range src {
				if dst[i] != src[i]^want[i] {
					t.Fatalf("step %d: XORKeyStream(%d) at offset %d diverges at byte %d", step, n, pos, i)
				}
			}
			if dst[n] != 0 || dst[n+1] != 0 || dst[n+2] != 0 {
				t.Fatalf("step %d: XORKeyStream wrote past len(src)", step)
			}
		case 2:
			c.Skip(n)
		}
		pos += n
	}
}

func TestTwentyByteKeyDiffersFromSingleSpin(t *testing.T) {
	key := make([]byte, 20)
	for i := range key {
		key[i] = byte(i)
	}
	ours, _ := New(key)
	ref, _ := rc4.NewCipher(key)
	a := make([]byte, 64)
	b := make([]byte, 64)
	ours.XORKeyStream(a, a)
	ref.XORKeyStream(b, b)
	if bytes.Equal(a, b) {
		t.Fatal("20-byte key did not get the second key-schedule spin")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	key := []byte("session-key-twenty!!")
	enc, _ := New(key)
	dec, _ := New(key)
	msg := []byte("attack at dawn, flush the attribute cache")
	ct := make([]byte, len(msg))
	enc.XORKeyStream(ct, msg)
	if bytes.Equal(ct, msg) {
		t.Fatal("ciphertext equals plaintext")
	}
	pt := make([]byte, len(ct))
	dec.XORKeyStream(pt, ct)
	if !bytes.Equal(pt, msg) {
		t.Fatal("decryption failed")
	}
}

func TestStreamContinuity(t *testing.T) {
	// Encrypting in two chunks must match encrypting at once: the
	// stream runs for the whole session.
	key := []byte("0123456789abcdefghij")
	a, _ := New(key)
	b, _ := New(key)
	msg := bytes.Repeat([]byte("xyzzy"), 20)
	one := make([]byte, len(msg))
	a.XORKeyStream(one, msg)
	two := make([]byte, len(msg))
	b.XORKeyStream(two[:33], msg[:33])
	b.XORKeyStream(two[33:], msg[33:])
	if !bytes.Equal(one, two) {
		t.Fatal("chunked keystream diverges")
	}
}

func TestKeyStreamTap(t *testing.T) {
	key := []byte("0123456789abcdefghij")
	a, _ := New(key)
	b, _ := New(key)
	tap := a.KeyStream(32)
	zero := make([]byte, 32)
	direct := make([]byte, 32)
	b.XORKeyStream(direct, zero)
	if !bytes.Equal(tap, direct) {
		t.Fatal("KeyStream disagrees with XOR of zeros")
	}
	if bytes.Equal(tap, zero) {
		t.Fatal("keystream is all zeros")
	}
}

func TestInvalidKeySizes(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil key accepted")
	}
	if _, err := New(make([]byte, 257)); err == nil {
		t.Fatal("257-byte key accepted")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(key [20]byte, msg []byte) bool {
		enc, err := New(key[:])
		if err != nil {
			return false
		}
		dec, _ := New(key[:])
		ct := make([]byte, len(msg))
		enc.XORKeyStream(ct, msg)
		pt := make([]byte, len(ct))
		dec.XORKeyStream(pt, ct)
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func benchXOR(b *testing.B, n int) {
	c, _ := New(make([]byte, 20))
	buf := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.XORKeyStream(buf, buf)
	}
}

// One 8 KiB NFS payload: the per-byte cost of the data path.
func BenchmarkXORKeyStream8K(b *testing.B) { benchXOR(b, 8192) }

// The 4-byte record length secchan seals on its own: the per-call cost.
func BenchmarkXORKeyStream4(b *testing.B) { benchXOR(b, 4) }

// The per-record MAC re-key tap.
func BenchmarkKeyStreamInto32(b *testing.B) {
	c, _ := New(make([]byte, 20))
	var key [32]byte
	b.SetBytes(int64(len(key)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.KeyStreamInto(key[:])
	}
}
