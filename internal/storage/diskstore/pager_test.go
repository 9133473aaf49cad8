package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/slab"
	"repro/internal/storage"
)

// slabBlocks is how many blocks one slab of block memory holds.
const (
	slabBlocks = slab.SlabBytes / storage.BlockSize
	slabBytes  = slab.SlabBytes
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
// identically while residency stays under budget and its block memory
// within the budget's slabs — the larger-than-RAM acceptance row at
// unit scale.
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
		if err := s.Write(id, 0, fileContent(id, fileSize), false, 1, nil); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, regNode(id, fileSize))
	}
	if err := s.Commit(2, nil); err != nil {
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
		// Evicted buffers serve the next installs, so the pass maps
		// no more than the budget's worth of slabs.
		if ps.MappedBytes == 0 || ps.MappedBytes > mappedBound(hot) {
			t.Fatalf("%s: mapped_bytes = %d, want 1..%d", label, ps.MappedBytes, mappedBound(hot))
		}
		checkBufs(t, st.pg)
	}
	verify(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m := s.StorageStats().Pager.MappedBytes; m != 0 {
		t.Fatalf("mapped_bytes = %d after Close, want 0", m)
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
	if err := s.Write(2, 0, full, true, 1, nil); err != nil {
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
	if err := s.Write(3, 0, fileContent(3, 128<<10), false, 2, nil); err != nil {
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
	if err := s.Write(2, 0, doomed, true, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(3, 0, keeper, true, 1, nil); err != nil {
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
	if err := s.Write(4, 0, fileContent(4, 64<<10), true, 2, nil); err != nil {
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
	if err := s.Write(2, 0, []byte("abc"), false, 1, nil); err != nil {
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
// unwritten tail of a slot must still read as zeros, and the buffers
// must stay bounded: each is resident or on the free list, and one
// slab holds them all.
func TestPagerRecycledBufferReadsClean(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HotBytes: storage.BlockSize}) // one resident block
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	const id = 2
	const written = 32
	stale := bytes.Repeat([]byte{0xAA}, storage.BlockSize)
	for bno := uint64(0); bno < written; bno++ {
		if err := s.Write(id, bno*storage.BlockSize, stale, false, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	free := checkBufs(t, s.pg)
	if free != slabBlocks-1 {
		t.Fatalf("free list holds %d buffers after %d evictions, want %d (one slab less the resident block)", free, written-1, slabBlocks-1)
	}
	if m := s.StorageStats().Pager.MappedBytes; m != slabBytes {
		t.Fatalf("mapped_bytes = %d after %d one-block installs, want one slab (%d)", m, written, slabBytes)
	}
	sh := s.pg.shard(id)

	// A hole: one byte, the last, written into a block that has no slot.
	hole := uint64(2 * written)
	if err := s.Write(id, (hole+1)*storage.BlockSize-1, []byte{1}, false, 2, nil); err != nil {
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

// checkBufs fails unless every buffer the pager holds from its block
// memory belongs to a resident block, which a dead block that kept its
// buffer breaks, and returns how many buffers of the mapped slabs are
// free. The pager must be idle.
func checkBufs(t *testing.T, p *pager) uint64 {
	t.Helper()
	live, res := uint64(p.blocks.Live()), p.resident.Load()
	if live != res {
		t.Fatalf("%d buffers live in the block memory, but %d blocks resident", live, res)
	}
	m := p.blocks.Mapped()
	if m%slabBytes != 0 || m/storage.BlockSize < live {
		t.Fatalf("mapped_bytes = %d for %d live buffers", m, live)
	}
	return m/storage.BlockSize - live
}

// mappedBound is the most block memory a pager may hold after a
// single-threaded pass: its budget plus the one block per shard that
// in-shard eviction keeps, in whole slabs.
func mappedBound(hotBytes uint64) uint64 {
	blocks := hotBytes/storage.BlockSize + pagerShards
	return (blocks + slabBlocks - 1) / slabBlocks * slabBytes
}

// TestPagerDeadBlocksReturnBuffers: blocks that truncate or Remove
// drop while resident give their buffers back, so filling twice the
// budget and throwing it away, over and over, maps no more memory than
// one fill does.
func TestPagerDeadBlocksReturnBuffers(t *testing.T) {
	const hot = 1 << 20
	s, err := Open(t.TempDir(), Options{HotBytes: hot})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	content := fileContent(2, 2*hot)
	for round := range 20 {
		if err := s.Write(2, 0, content, false, int64(round), nil); err != nil {
			t.Fatal(err)
		}
		how := "truncate"
		if round%2 == 0 {
			err = s.Truncate(2, 0)
		} else {
			how = "remove"
			err = s.Remove(2)
		}
		if err != nil {
			t.Fatal(err)
		}
		if m := s.StorageStats().Pager.MappedBytes; m > mappedBound(hot) {
			t.Fatalf("round %d (%s): mapped_bytes = %d, bound %d", round, how, m, mappedBound(hot))
		}
		checkBufs(t, s.pg)
	}
}

// TestPagerClosedRefusesEveryEntryPoint: once closed, with its block
// memory unmapped, the pager answers every call with errPagerClosed.
func TestPagerClosedRefusesEveryEntryPoint(t *testing.T) {
	s := openT(t, t.TempDir())
	drainReplay(t, s)
	if err := s.Write(2, 0, fileContent(2, 3*storage.BlockSize), false, 1, nil); err != nil {
		t.Fatal(err)
	}
	p := s.pg
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, ckptErr := p.checkpointImage(map[uint64]struct{}{2: {}}, func(uint64, uint64, []uint64, []uint64) error { return nil })
	for name, err := range map[string]error{
		"ReadAt":          p.ReadAt(2, 0, make([]byte, 10)),
		"WriteAt":         p.WriteAt(2, 0, []byte("x")),
		"Truncate":        p.Truncate(2, 1),
		"Remove":          p.Remove(2),
		"flushDirty":      p.flushDirty(),
		"checkpointImage": ckptErr,
	} {
		if !errors.Is(err, errPagerClosed) {
			t.Errorf("%s on a closed pager: %v, want %v", name, err, errPagerClosed)
		}
	}
	p.rebalance() // must return without touching a shard
}

// TestPagerCloseRace: readers, writers, a truncating churner and
// PrepareCheckpoint run while CrashRestart orphans the pager they hold
// and then Close unmaps the block memory of its successor. Every call
// returns its data or an error; none touches unmapped memory, which
// would fault the test binary rather than fail it. Each call that
// starts after Close returns must fail.
func TestPagerCloseRace(t *testing.T) {
	s, err := Open(t.TempDir(), Options{HotBytes: 128 << 10}) // 16 blocks
	if err != nil {
		t.Fatal(err)
	}
	drainReplay(t, s)
	const files = 4
	const size = 64 << 10 // twice the budget in all
	for id := uint64(2); id < 2+files; id++ {
		if err := s.Write(id, 0, fileContent(id, size), true, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	var (
		closed atomic.Bool
		calls  [3]atomic.Uint64 // successful calls before the crash, between crash and close, after close
		phase  atomic.Int32
		stop   = make(chan struct{})
		wg     sync.WaitGroup
	)
	worker := func(name string, op func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				after, ph := closed.Load(), phase.Load()
				err := op(i)
				if after && err == nil {
					t.Errorf("%s: call %d succeeded on a closed store", name, i)
					return
				}
				if err == nil {
					calls[ph].Add(1)
				}
			}
		}()
	}
	for g := range 2 {
		worker(fmt.Sprintf("reader %d", g), func(i int) error {
			id := uint64(2 + (g+i)%files)
			off := uint64(i*977) % (size - storage.BlockSize)
			buf := make([]byte, storage.BlockSize)
			if err := s.ReadAt(id, off, buf); err != nil {
				return err
			}
			if !bytes.Equal(buf, fileContent(id, size)[off:off+storage.BlockSize]) {
				t.Errorf("reader %d: id %d at %d reads wrong bytes", g, id, off)
			}
			return nil
		})
		worker(fmt.Sprintf("writer %d", g), func(i int) error {
			id := uint64(2 + (g+i)%files)
			off := uint64(i*1531) % (size - storage.BlockSize)
			return s.Write(id, off, fileContent(id, size)[off:off+storage.BlockSize], false, 2, nil)
		})
	}
	worker("churner", func(i int) error {
		if err := s.Write(99, 0, fileContent(99, size), false, 3, nil); err != nil {
			return err
		}
		if i%2 == 0 {
			return s.Truncate(99, storage.BlockSize/2)
		}
		return s.Remove(99)
	})
	worker("prepare", func(int) error { return s.PrepareCheckpoint() })

	time.Sleep(30 * time.Millisecond)
	if err := s.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	phase.Store(1)
	drainReplay(t, s)
	time.Sleep(30 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	phase.Store(2)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if calls[0].Load() == 0 || calls[1].Load() == 0 {
		t.Fatalf("successful calls before the crash %d, before the close %d: the race never ran", calls[0].Load(), calls[1].Load())
	}
	if m := s.StorageStats().Pager.MappedBytes; m != 0 {
		t.Fatalf("mapped_bytes = %d after Close, want 0", m)
	}
}
