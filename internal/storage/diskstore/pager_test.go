package diskstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// fileContent builds a deterministic per-file pattern so cross-file
// slot mixups show up as content mismatches.
func fileContent(id uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(id*131 + uint64(i)*7)
	}
	return p
}

// TestPagerLargerThanRAM writes a dataset several times the hot
// budget, checkpoints, and proves the pager serves every byte back
// identically while residency stays under budget — the
// larger-than-RAM acceptance row at unit scale.
func TestPagerLargerThanRAM(t *testing.T) {
	dir := t.TempDir()
	const hot = 256 << 10 // 32 blocks
	s, err := Open(dir, Options{HotBytes: hot})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)

	const files = 24
	const fileSize = 96 << 10 // 2.25 MB total, 9x the hot budget
	var nodes []storage.NodeRecord
	for id := uint64(2); id < 2+files; id++ {
		if err := s.WriteAt(id, 0, fileContent(id, fileSize), false, 1); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, regNode(id, fileSize))
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	checkpointT(t, s, 100, 100, nodes...)

	verify := func(st *Store, label string) {
		t.Helper()
		buf := make([]byte, fileSize)
		for id := uint64(2); id < 2+files; id++ {
			if err := st.ReadAt(id, 0, buf); err != nil {
				t.Fatalf("%s: ReadAt(%d): %v", label, id, err)
			}
			if !bytes.Equal(buf, fileContent(id, fileSize)) {
				t.Fatalf("%s: content mismatch for id %d", label, id)
			}
		}
		ps := st.StorageStats().Pager
		if ps.ResidentBytes > hot {
			t.Fatalf("%s: resident %d bytes exceeds hot budget %d", label, ps.ResidentBytes, hot)
		}
		if ps.Faults == 0 || ps.Evictions == 0 {
			t.Fatalf("%s: dataset 9x budget but faults=%d evictions=%d", label, ps.Faults, ps.Evictions)
		}
	}
	verify(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: content now comes exclusively from image + extent file.
	s2, err := Open(dir, Options{HotBytes: hot})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	drainReplay(t, s2)
	verify(s2, "reopened")
}

func TestPagerTruncateZeroesTail(t *testing.T) {
	dir := t.TempDir()
	// Tiny budget so the boundary block cycles through its extent slot.
	s, err := Open(dir, Options{HotBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)

	full := bytes.Repeat([]byte{0xab}, 3*storage.BlockSize)
	if err := s.WriteAt(2, 0, full, true, 1); err != nil {
		t.Fatal(err)
	}
	// Shrink to mid-block, then grow again: everything past the shrink
	// point must read as zeros, even after eviction pressure.
	cut := uint64(storage.BlockSize + 100)
	if err := s.LogMeta(&storage.MetaRecord{Op: storage.OpSetAttr, ID: 2, SetMask: storage.SetSize, Size: cut}); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(2, cut); err != nil {
		t.Fatal(err)
	}
	grow := uint64(3 * storage.BlockSize)
	if err := s.LogMeta(&storage.MetaRecord{Op: storage.OpSetAttr, ID: 2, SetMask: storage.SetSize, Size: grow}); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(2, grow); err != nil {
		t.Fatal(err)
	}
	// Evict everything by streaming another file through the budget.
	if err := s.WriteAt(3, 0, fileContent(3, 128<<10), false, 2); err != nil {
		t.Fatal(err)
	}

	check := func(st *Store, label string) {
		t.Helper()
		got := make([]byte, grow)
		if err := st.ReadAt(2, 0, got); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := make([]byte, grow)
		copy(want, full[:cut])
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: first mismatch at %d: got %#x want %#x", label, i, got[i], want[i])
				}
			}
		}
	}
	check(s, "live")

	// And across a checkpointed reopen.
	checkpointT(t, s, 4, 1, regNode(2, grow), regNode(3, 128<<10))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{HotBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	drainReplay(t, s2)
	check(s2, "reopened")
}

// TestPagerSlotReuseDeferred: slots freed by Remove must not be
// handed out again until two checkpoints later, so both retained
// images keep referencing valid bindings. Exercised end to end: drop
// a file, checkpoint, corrupt the newest image, and prove the
// fallback image still reads the original content of a slot that a
// naive allocator would have reused.
func TestPagerSlotReuseDeferred(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HotBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	doomed := fileContent(2, 64<<10)
	keeper := fileContent(3, 64<<10)
	if err := s.WriteAt(2, 0, doomed, true, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(3, 0, keeper, true, 1); err != nil {
		t.Fatal(err)
	}
	// Image 1 references both files' slots.
	checkpointT(t, s, 4, 1, regNode(2, 64<<10), regNode(3, 64<<10))
	// Drop file 2 (slots -> deferred free) and checkpoint again: image
	// 2 has only file 3, but image 1 still references file 2's slots.
	if err := s.LogMeta(&storage.MetaRecord{Op: storage.OpRemove, Dir: 1, Name: "f2", ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(2); err != nil {
		t.Fatal(err)
	}
	checkpointT(t, s, 4, 1, regNode(3, 64<<10))
	// New writes must not land in file 2's old slots yet.
	if err := s.WriteAt(4, 0, fileContent(4, 64<<10), true, 2); err != nil {
		t.Fatal(err)
	}
	free := func() int {
		s.pg.allocMu.Lock()
		defer s.pg.allocMu.Unlock()
		return len(s.pg.free)
	}
	if free() != 0 {
		t.Fatalf("%d slots reusable one checkpoint after the free, want 0", free())
	}
	// Third checkpoint promotes the freed generation.
	checkpointT(t, s, 5, 1, regNode(3, 64<<10), regNode(4, 64<<10))
	if free() == 0 {
		t.Fatal("slots still deferred two checkpoints after the free")
	}
}

func TestPagerReadBeyondExtentErrors(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	drainReplay(t, s)
	if err := s.ReadAt(9, 0, make([]byte, 1)); err == nil {
		t.Fatal("read of unknown id succeeded")
	}
	if err := s.WriteAt(2, 0, []byte("abc"), false, 1); err != nil {
		t.Fatal(err)
	}
	err := s.ReadAt(2, 2, make([]byte, 2))
	if err == nil {
		t.Fatal("read past size succeeded")
	}
	want := fmt.Sprintf("diskstore: read of id %d [%d,+%d) beyond stored extent", 2, 2, 2)
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestPagerRecycledBufferReadsClean: an evicted block's buffer is
// handed to the next install with its old bytes in it. A hole and the
// unwritten tail of a slot must still read as zeros, and the list of
// kept buffers must stay bounded.
func TestPagerRecycledBufferReadsClean(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HotBytes: storage.BlockSize}) // one resident block
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	const id = 2
	stale := bytes.Repeat([]byte{0xAA}, storage.BlockSize)
	for bno := uint64(0); bno < 2*spareBlocks; bno++ {
		if err := s.WriteAt(id, bno*storage.BlockSize, stale, false, 1); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.pg.shard(id)
	sh.mu.Lock()
	spare := len(sh.spare)
	sh.mu.Unlock()
	if spare == 0 || spare > spareBlocks {
		t.Fatalf("shard keeps %d spare buffers after %d evictions, want 1..%d", spare, 2*spareBlocks-1, spareBlocks)
	}

	// A hole: one byte, the last, written into a block that has no slot.
	hole := uint64(4 * spareBlocks)
	if err := s.WriteAt(id, (hole+1)*storage.BlockSize-1, []byte{1}, false, 2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, storage.BlockSize)
	if err := s.ReadAt(id, hole*storage.BlockSize, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, storage.BlockSize)
	want[storage.BlockSize-1] = 1
	if !bytes.Equal(got, want) {
		t.Fatal("a block faulted in over a hole shows a recycled buffer's bytes")
	}

	// A short slot: the extent file ends inside the last slot written,
	// as after a crash that lost its tail.
	st, err := s.pg.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(st.Size()/storage.BlockSize) - 1
	if err := s.pg.f.Truncate(st.Size() - 100); err != nil {
		t.Fatal(err)
	}
	var bno uint64
	sh.mu.Lock()
	for b, slot := range sh.files[id].slots {
		if slot == last {
			bno = b
		}
	}
	sh.mu.Unlock()
	if err := s.ReadAt(id, bno*storage.BlockSize, got); err != nil {
		t.Fatal(err)
	}
	copy(want, stale)
	clear(want[storage.BlockSize-100:])
	if !bytes.Equal(got, want) {
		t.Fatal("the unwritten tail of a short slot shows a recycled buffer's bytes")
	}
}
