package prng

import (
	"bytes"
	"math/big"
	"testing"
)

func TestSeededDeterministic(t *testing.T) {
	a := NewSeeded([]byte("seed"))
	b := NewSeeded([]byte("seed"))
	if !bytes.Equal(a.Bytes(100), b.Bytes(100)) {
		t.Fatal("same seed produced different streams")
	}
}

func TestSeedsSeparate(t *testing.T) {
	a := NewSeeded([]byte("seed-a"))
	b := NewSeeded([]byte("seed-b"))
	if bytes.Equal(a.Bytes(100), b.Bytes(100)) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestStreamAdvances(t *testing.T) {
	g := NewSeeded([]byte("x"))
	if bytes.Equal(g.Bytes(20), g.Bytes(20)) {
		t.Fatal("generator repeated an output block")
	}
}

func TestNewGeneratorsDiffer(t *testing.T) {
	a := New()
	b := New()
	if bytes.Equal(a.Bytes(32), b.Bytes(32)) {
		t.Fatal("two environment-seeded generators produced the same stream")
	}
}

func TestReadSizes(t *testing.T) {
	g := NewSeeded([]byte("sizes"))
	for _, n := range []int{0, 1, 19, 20, 21, 64, 1000} {
		b := g.Bytes(n)
		if len(b) != n {
			t.Fatalf("Bytes(%d) returned %d bytes", n, len(b))
		}
	}
}

func TestIntUniformBounds(t *testing.T) {
	g := NewSeeded([]byte("int"))
	max := big.NewInt(1000)
	seen := map[int64]bool{}
	for i := 0; i < 3000; i++ {
		v := g.Int(max)
		if v.Sign() < 0 || v.Cmp(max) >= 0 {
			t.Fatalf("Int out of range: %v", v)
		}
		seen[v.Int64()] = true
	}
	if len(seen) < 800 {
		t.Fatalf("poor coverage: only %d distinct values of 1000", len(seen))
	}
}

func TestIntOneValue(t *testing.T) {
	g := NewSeeded([]byte("one"))
	if v := g.Int(big.NewInt(1)); v.Sign() != 0 {
		t.Fatalf("Int(1) = %v, want 0", v)
	}
}

func TestForwardSecurityStateChanges(t *testing.T) {
	g := NewSeeded([]byte("fwd"))
	before := g.xkey
	g.Bytes(20)
	if g.xkey == before {
		t.Fatal("state did not advance after output")
	}
}

func TestByteDistributionRoughlyUniform(t *testing.T) {
	g := NewSeeded([]byte("dist"))
	counts := [256]int{}
	const n = 1 << 16
	for _, b := range g.Bytes(n) {
		counts[b]++
	}
	exp := n / 256
	for v, c := range counts {
		if c < exp/2 || c > exp*2 {
			t.Fatalf("byte %#x count %d far from expectation %d", v, c, exp)
		}
	}
}

func BenchmarkRead1K(b *testing.B) {
	g := NewSeeded([]byte("bench"))
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		g.Read(buf) //nolint:errcheck
	}
}
