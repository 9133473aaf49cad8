package sha1mac

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestPoolPicksByCPUID: the pool hands out the SHA-extension digest
// exactly when detection says the CPU has the extensions, and
// crypto/sha1 otherwise. Run with -v, a host without them shows as a
// skip naming the path that ran.
func TestPoolPicksByCPUID(t *testing.T) {
	st := statePool.Get().(*macState)
	defer statePool.Put(st)
	_, shani := st.h.(*digest)
	if shani != useSHANI {
		t.Fatalf("pool digest is %T, but detection says SHA extensions = %v", st.h, useSHANI)
	}
	if !useSHANI {
		t.Skipf("CPU lacks SHA/SSSE3/SSE4.1: MACs use %T (crypto/sha1)", st.h)
	}
	t.Logf("MACs use the SHA-extension digest")
}

func key(b byte) []byte {
	k := make([]byte, KeySize)
	for i := range k {
		k[i] = b + byte(i)
	}
	return k
}

func TestDeterministic(t *testing.T) {
	m1 := Sum(key(1), []byte("hello"))
	m2 := Sum(key(1), []byte("hello"))
	if m1 != m2 {
		t.Fatal("MAC is not deterministic")
	}
}

func TestKeySeparation(t *testing.T) {
	if Sum(key(1), []byte("hello")) == Sum(key(2), []byte("hello")) {
		t.Fatal("different keys produced the same MAC")
	}
}

func TestDataSeparation(t *testing.T) {
	if Sum(key(1), []byte("hello")) == Sum(key(1), []byte("hellp")) {
		t.Fatal("different messages produced the same MAC")
	}
}

func TestLengthBinding(t *testing.T) {
	// Messages that would collide without length framing must not.
	a := Sum(key(1), []byte{0, 0})
	b := Sum(key(1), []byte{0, 0, 0})
	if a == b {
		t.Fatal("length not bound into MAC")
	}
}

func TestVerify(t *testing.T) {
	k := key(9)
	data := []byte("rpc payload")
	m := Sum(k, data)
	if !Verify(k, data, m[:]) {
		t.Fatal("valid MAC rejected")
	}
	bad := m
	bad[0] ^= 1
	if Verify(k, data, bad[:]) {
		t.Fatal("corrupted MAC accepted")
	}
	if Verify(k, data, m[:Size-1]) {
		t.Fatal("short MAC accepted")
	}
	if Verify(k, append([]byte("x"), data...), m[:]) {
		t.Fatal("MAC accepted for different data")
	}
}

func TestBadKeySizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short key did not panic")
		}
	}()
	Sum([]byte("short"), nil)
}

func TestQuickNoCollisionsOnFlip(t *testing.T) {
	f := func(k [KeySize]byte, data []byte, flip uint) bool {
		if len(data) == 0 {
			return true
		}
		m1 := Sum(k[:], data)
		mut := bytes.Clone(data)
		mut[flip%uint(len(mut))] ^= 0x01
		m2 := Sum(k[:], mut)
		return m1 != m2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSumAllocatesNothing: a MAC costs no allocation once the pool is
// warm, on whichever digest the pool hands out. Sum and SumVec run once
// per sealed and once per opened record. Hard fail, same pattern as
// secchan's TestSealGatherZeroAlloc.
func TestSumAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	k := key(5)
	for _, n := range []int{120, 8192} {
		data := make([]byte, n)
		segs := [][]byte{data[:40], data[40:]}
		Sum(k, data)
		if a := testing.AllocsPerRun(100, func() { Sum(k, data) }); a != 0 {
			t.Errorf("Sum of %d bytes: %.1f allocs per call, want 0", n, a)
		}
		if a := testing.AllocsPerRun(100, func() { SumVec(k, segs) }); a != 0 {
			t.Errorf("SumVec of %d bytes: %.1f allocs per call, want 0", n, a)
		}
	}
}

func BenchmarkSum8K(b *testing.B) {
	k := key(3)
	data := make([]byte, 8192)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum(k, data)
	}
}

// BenchmarkSumVec120 is a small record's MAC (meta_small's GETATTR and
// LOOKUP replies) sealed from a header and a body segment.
func BenchmarkSumVec120(b *testing.B) {
	k := key(3)
	data := make([]byte, 120)
	segs := [][]byte{data[:28], data[28:]}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumVec(k, segs)
	}
}
