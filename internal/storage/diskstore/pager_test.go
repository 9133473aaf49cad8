package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// The scan-resistance tests run a 64-block budget: probation holds 8
// blocks and the ghost list the keys of the last 56 probation
// evictions. Ids 2, 10 and 18 share a shard, the hardest case, since
// in-shard eviction then chooses among all three files.
const (
	scanHot    = 64 * storage.BlockSize
	scanProb   = scanHot / storage.BlockSize / probationShare
	scanBlocks = 4 * scanHot / storage.BlockSize
)

// writeBlocks writes blocks [0, n) of id one whole block at a time.
func writeBlocks(t *testing.T, s *Store, id uint64, n int) {
	t.Helper()
	content := fileContent(id, n*storage.BlockSize)
	for b := 0; b < n; b++ {
		if err := s.Write(id, uint64(b)*storage.BlockSize, content[b*storage.BlockSize:(b+1)*storage.BlockSize], false, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// readPass reads blocks [0, n) of id in order, checks their bytes, and
// returns how many faults the pass took.
func readPass(t *testing.T, s *Store, id uint64, n int) uint64 {
	t.Helper()
	before := s.StorageStats().Pager.Faults
	want := fileContent(id, n*storage.BlockSize)
	got := make([]byte, storage.BlockSize)
	for b := 0; b < n; b++ {
		if err := s.ReadAt(id, uint64(b)*storage.BlockSize, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[b*storage.BlockSize:(b+1)*storage.BlockSize]) {
			t.Fatalf("id %d block %d reads wrong bytes", id, b)
		}
	}
	return s.StorageStats().Pager.Faults - before
}

// checkClasses fails unless the pager holds prob blocks on probation
// and prot protected ones, and both together are what is resident.
func checkClasses(t *testing.T, s *Store, label string, prob, prot uint64) {
	t.Helper()
	ps := s.StorageStats().Pager
	if ps.ProbationBytes != prob*storage.BlockSize || ps.ProtectedBytes != prot*storage.BlockSize || ps.ResidentBytes != ps.ProbationBytes+ps.ProtectedBytes {
		t.Fatalf("%s: probation %d B, protected %d B, resident %d B; want %d and %d blocks",
			label, ps.ProbationBytes, ps.ProtectedBytes, ps.ResidentBytes, prob, prot)
	}
	checkBufs(t, s.pg)
}

// TestPagerScanStaysOnProbation: a one-pass scan of four times the
// budget, written and then read, keeps residency within the
// probation bound plus the one block per shard that in-shard eviction
// keeps, and promotes nothing.
func TestPagerScanStaysOnProbation(t *testing.T) {
	s, err := Open(t.TempDir(), Options{HotBytes: scanHot})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	const bound = (scanProb + pagerShards) * storage.BlockSize
	writeBlocks(t, s, 2, scanBlocks)
	if ps := s.StorageStats().Pager; ps.ResidentBytes > bound {
		t.Fatalf("after the write pass: resident %d B, bound %d B", ps.ResidentBytes, bound)
	}
	if f := readPass(t, s, 2, scanBlocks); f != scanBlocks {
		t.Fatalf("read pass took %d faults, want %d", f, scanBlocks)
	}
	ps := s.StorageStats().Pager
	if ps.ResidentBytes > bound || ps.GhostPromotions != 0 {
		t.Fatalf("after the read pass: resident %d B (bound %d B), %d promotions (want 0)", ps.ResidentBytes, bound, ps.GhostPromotions)
	}
	checkClasses(t, s, "after the scan", scanProb, 0)
	if ps.MappedBytes > mappedBound(bound) {
		t.Fatalf("mapped_bytes = %d, want <= %d", ps.MappedBytes, mappedBound(bound))
	}
}

// TestPagerHotFileSurvivesScan: a file whose blocks came back while
// their keys were ghosts is protected, and a scan of four times the
// budget through the same shard leaves it resident: re-reading it
// takes no fault.
func TestPagerHotFileSurvivesScan(t *testing.T) {
	s, err := Open(t.TempDir(), Options{HotBytes: scanHot})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	const hot, filler, scan = 2, 10, 18
	const hotBlocks = 16
	writeBlocks(t, s, hot, hotBlocks)   // blocks 0-7 become ghosts, 8-15 stay on probation
	writeBlocks(t, s, filler, scanProb) // and push 8-15 out after them
	if f := readPass(t, s, hot, hotBlocks); f != hotBlocks {
		t.Fatalf("promoting pass took %d faults, want %d", f, hotBlocks)
	}
	checkClasses(t, s, "after promotion", scanProb, hotBlocks)
	if got := s.StorageStats().Pager.GhostPromotions; got != hotBlocks {
		t.Fatalf("ghost promotions = %d, want %d", got, hotBlocks)
	}
	writeBlocks(t, s, scan, scanBlocks)
	if f := readPass(t, s, scan, scanBlocks); f == 0 {
		t.Fatal("the scan's read pass took no fault")
	}
	if f := readPass(t, s, hot, hotBlocks); f != 0 {
		t.Fatalf("re-reading the hot file after the scan took %d faults, want 0", f)
	}
	checkClasses(t, s, "after the scan", scanProb, hotBlocks)
}

// TestPagerHalfBudgetFileResidentOnThirdPass: a file of half the
// budget, read from cold, is resident from its third pass on. Its
// second pass is the one extra miss that probation costs: it faults
// every block but the probation tail, and promotes them.
func TestPagerHalfBudgetFileResidentOnThirdPass(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HotBytes: scanHot})
	if err != nil {
		t.Fatal(err)
	}
	drainReplay(t, s)
	const n = scanHot / storage.BlockSize / 2
	writeBlocks(t, s, 2, n)
	checkpointT(t, s, 3, 1, regNode(2, n*storage.BlockSize))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{HotBytes: scanHot})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	for pass, want := range []uint64{n, n - scanProb, 0} {
		if f := readPass(t, s, 2, n); f != want {
			t.Fatalf("pass %d took %d faults, want %d", pass+1, f, want)
		}
	}
	checkClasses(t, s, "after three passes", scanProb, n-scanProb)
}

// TestPagerGhostOverwritePromoted: a whole-block overwrite admits
// without a fault, and of a block whose key is a ghost it admits the
// block protected, as a fault would.
func TestPagerGhostOverwritePromoted(t *testing.T) {
	s, err := Open(t.TempDir(), Options{HotBytes: scanHot})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	writeBlocks(t, s, 2, 2*scanProb) // blocks 0 to scanProb-1 become ghosts
	faults := s.StorageStats().Pager.Faults
	block := bytes.Repeat([]byte{0x5A}, storage.BlockSize)
	if err := s.Write(2, 0, block, false, 2, nil); err != nil {
		t.Fatal(err)
	}
	ps := s.StorageStats().Pager
	if ps.GhostPromotions != 1 || ps.Faults != faults {
		t.Fatalf("overwrite of a ghost: %d promotions, %d faults; want 1 and %d", ps.GhostPromotions, ps.Faults, faults)
	}
	checkClasses(t, s, "after the overwrite", scanProb, 1)
	got := make([]byte, storage.BlockSize)
	if err := s.ReadAt(2, 0, got); err != nil || !bytes.Equal(got, block) {
		t.Fatalf("promoted block reads back wrong (%v)", err)
	}
}

// TestPagerRemoveTruncateForgetClasses: Remove and a Truncate to zero
// drop every resident block of the file, protected and on probation,
// and forget its ghosts, so writing the same blocks again promotes
// none of them.
func TestPagerRemoveTruncateForgetClasses(t *testing.T) {
	for _, how := range []string{"remove", "truncate"} {
		t.Run(how, func(t *testing.T) {
			s, err := Open(t.TempDir(), Options{HotBytes: scanHot})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			drainReplay(t, s)
			const n = 3 * scanProb
			writeBlocks(t, s, 2, n) // blocks 0 to n-scanProb-1 become ghosts
			if f := readPass(t, s, 2, 4); f != 4 {
				t.Fatalf("reading four ghosts took %d faults, want 4", f)
			}
			checkClasses(t, s, "before "+how, scanProb, 4)
			if how == "remove" {
				err = s.Remove(2)
			} else {
				err = s.Truncate(2, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			checkClasses(t, s, "after "+how, 0, 0)
			writeBlocks(t, s, 2, n)
			if got := s.StorageStats().Pager.GhostPromotions; got != 4 {
				t.Fatalf("rewriting the file after %s promoted %d blocks off old ghosts", how, got-4)
			}
			checkClasses(t, s, "after the rewrite", scanProb, 0)
		})
	}
}

// TestPagerStuckWriteBackSkipped: a dirty probation block whose
// write-back fails is retried after the rest of probation, so the clean
// blocks behind it are still evicted and probation stays within its
// bound plus that one block.
func TestPagerStuckWriteBackSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HotBytes: scanHot})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	writeBlocks(t, s, 2, scanBlocks)
	checkpointT(t, s, 3, 1, regNode(2, scanBlocks*storage.BlockSize)) // every block clean
	// Dirty the oldest probation block, then make write-backs fail.
	oldest := uint64(scanBlocks - scanProb)
	if err := s.Write(2, oldest*storage.BlockSize, fileContent(2, scanBlocks*storage.BlockSize)[oldest*storage.BlockSize:][:10], false, 2, nil); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(filepath.Join(dir, ExtentsName))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rw := s.pg.f
	s.pg.f = ro
	defer func() { s.pg.f = rw }()
	if f := readPass(t, s, 2, 64); f != 64 {
		t.Fatalf("read pass took %d faults, want 64", f)
	}
	ps := s.StorageStats().Pager
	if ps.WriteBackFailures == 0 || ps.ProbationBytes > (scanProb+1)*storage.BlockSize {
		t.Fatalf("%d write-back failures, probation %d B; want > 0 and <= %d B", ps.WriteBackFailures, ps.ProbationBytes, (scanProb+1)*storage.BlockSize)
	}
}
