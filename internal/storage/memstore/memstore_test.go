package memstore

import (
	"bytes"
	"runtime"
	"testing"
)

func readT(t *testing.T, s *Store, id, off uint64, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if err := s.ReadAt(id, off, p); err != nil {
		t.Fatalf("ReadAt(%d, %d, %d): %v", id, off, n, err)
	}
	return p
}

func TestWriteReadTruncate(t *testing.T) {
	s := New()
	if err := s.WriteAt(1, 4, []byte("hello"), true, 0); err != nil {
		t.Fatal(err)
	}
	// The gap before the write zero-fills.
	if got := readT(t, s, 1, 0, 9); !bytes.Equal(got, append(make([]byte, 4), "hello"...)) {
		t.Fatalf("read = %q", got)
	}
	if err := s.Truncate(1, 6); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(1, 0, make([]byte, 9)); err == nil {
		t.Fatal("read beyond truncated extent succeeded")
	}
	if err := s.Truncate(1, 8); err != nil {
		t.Fatal(err)
	}
	// Growing truncate zero-fills too.
	if got := readT(t, s, 1, 4, 4); !bytes.Equal(got, []byte{'h', 'e', 0, 0}) {
		t.Fatalf("after grow: read = %q", got)
	}
	if err := s.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(1, 0, make([]byte, 1)); err == nil {
		t.Fatal("read of removed id succeeded")
	}
}

// TestUnstableWriteCommitAllocatesNothing: the store is volatile, so an
// unstable write is an in-place write and Commit is free — neither may
// scale with the size of the file. 50 cycles on a 64 MiB file stay
// under 1 MiB of allocation in total (a per-cycle copy of the file, as
// the crash-simulation shadow made, is 3.2 GiB).
func TestUnstableWriteCommitAllocatesNothing(t *testing.T) {
	s := New()
	const size = 64 << 20
	if err := s.Truncate(1, size); err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{0xa5}, 8192)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		off := uint64(i) << 20
		if err := s.WriteAt(1, off, chunk, false, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("50 unstable write+commit cycles on a %d MiB file allocated %d bytes, want < 1 MiB", size>>20, got)
	}
	if got := readT(t, s, 1, 49<<20, len(chunk)); !bytes.Equal(got, chunk) {
		t.Fatal("committed write did not read back")
	}
}
