package sha1mac

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"hash"
	"math/rand"
	"strings"
	"testing"
)

// needSHANI skips a test of the SHA-extension digest on a CPU without
// the extensions, saying so: that path cannot run here, and a silent
// pass would read as coverage.
func needSHANI(t testing.TB) {
	t.Helper()
	if !useSHANI {
		t.Skip("CPU lacks SHA/SSSE3/SSE4.1: the SHA-extension digest cannot run here; MACs use crypto/sha1")
	}
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// digestOf hashes p written in pieces of the given lengths (the last
// piece takes what is left).
func digestOf(p []byte, pieces ...int) []byte {
	d := newDigest()
	for _, k := range pieces {
		if k > len(p) {
			k = len(p)
		}
		d.Write(p[:k])
		p = p[k:]
	}
	d.Write(p)
	return d.Sum(nil)
}

func checkAgainstStdlib(t *testing.T, p []byte, got []byte, how string) {
	t.Helper()
	if want := sha1.Sum(p); !bytes.Equal(got, want[:]) {
		t.Fatalf("%d bytes %s: digest %x, crypto/sha1 %x", len(p), how, got, want)
	}
}

func TestDigestKnownAnswers(t *testing.T) {
	needSHANI(t)
	// FIPS 180-2 appendix A and the empty message.
	for _, c := range []struct{ in, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	} {
		if got := hex.EncodeToString(digestOf([]byte(c.in))); got != c.want {
			t.Errorf("SHA-1(%q) = %s, want %s", c.in, got, c.want)
		}
	}
	// One million 'a', streamed in writes that straddle block edges.
	d := newDigest()
	chunk := []byte(strings.Repeat("a", 997))
	for left := 1000000; left > 0; left -= len(chunk) {
		d.Write(chunk[:min(left, len(chunk))])
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != "34aa973cd4c4daa4f61eeb2bdbad27316534016f" {
		t.Errorf("SHA-1(10^6 × 'a') = %s", got)
	}
}

func TestDigestEverySplit(t *testing.T) {
	needSHANI(t)
	for n := 0; n <= 200; n++ {
		p := randBytes(int64(n), n)
		for k := 0; k <= n; k++ {
			checkAgainstStdlib(t, p, digestOf(p, k), "split once")
		}
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		checkAgainstStdlib(t, p, digestOf(p, ones...), "in 1-byte writes")
	}
}

func TestDigestBlockBoundaries(t *testing.T) {
	needSHANI(t)
	for _, n := range []int{55, 56, 63, 64, 65, 119, 120, 127, 128, 129, 8192 - 40, 8192, 8192 + 40, 1 << 16} {
		p := randBytes(int64(n), n)
		for _, pieces := range [][]int{
			{63}, {64}, {65}, {63, 1}, {64, 64}, {65, 63},
			{16, 16, 8}, // the envelope's prefix: k1, k2, the length
			{1, 62, 1, 64, 130},
		} {
			checkAgainstStdlib(t, p, digestOf(p, pieces...), "at block edges")
		}
	}
}

func TestDigestSumLeavesStateAlone(t *testing.T) {
	needSHANI(t)
	p := randBytes(7, 300)
	d := newDigest()
	d.Write(p[:100])
	mid := d.Sum(nil)
	d.Sum(nil)
	d.Write(p[100:])
	checkAgainstStdlib(t, p[:100], mid, "summed mid-stream")
	checkAgainstStdlib(t, p, d.Sum(nil), "written after a Sum")
	d.Reset()
	checkAgainstStdlib(t, nil, d.Sum(nil), "after Reset")
}

// FuzzDigest compares the digest with crypto/sha1 for any data cut at
// any points: each byte of cuts is the length of the next write. The
// seed corpus is testdata/fuzz/FuzzDigest.
func FuzzDigest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		needSHANI(t)
		pieces := make([]int, len(cuts))
		for i, c := range cuts {
			pieces[i] = int(c)
		}
		checkAgainstStdlib(t, data, digestOf(data, pieces...), "cut by the fuzzer")
	})
}

func benchDigest(b *testing.B, h hash.Hash, n int) {
	data := make([]byte, n)
	var sum [Size]byte
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.Write(data)
		h.Sum(sum[:0])
	}
}

func BenchmarkDigest8K(b *testing.B) {
	b.Run("shani", func(b *testing.B) {
		needSHANI(b)
		benchDigest(b, newDigest(), 8192)
	})
	b.Run("crypto-sha1", func(b *testing.B) { benchDigest(b, sha1.New(), 8192) })
}
