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

// readAllT reads size bytes of id from offset 0.
func readAllT(t *testing.T, s *Store, id, size uint64) []byte {
	t.Helper()
	got := make([]byte, size)
	if err := s.ReadAt(id, 0, got); err != nil {
		t.Fatalf("ReadAt(%d): %v", id, err)
	}
	return got
}

// TestPagerLargerThanRAM writes a dataset, checkpoints, and proves the
// store serves every byte back identically, live and after a reopen,
// when the content comes from the image's extent index alone; the
// reopened pass reads each block from the extent file exactly once.
func TestPagerLargerThanRAM(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	drainReplay(t, s)

	const files = 24
	const fileSize = 96 << 10
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
		before := st.StorageStats().Pager.Faults
		for id := uint64(2); id < 2+files; id++ {
			if !bytes.Equal(readAllT(t, st, id, fileSize), fileContent(id, fileSize)) {
				t.Fatalf("%s: content mismatch for id %d", label, id)
			}
		}
		if got, want := st.StorageStats().Pager.Faults-before, uint64(files*fileSize/storage.BlockSize); got != want {
			t.Fatalf("%s: the pass took %d extent reads, want one per block (%d)", label, got, want)
		}
	}
	verify(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: content now comes exclusively from image + extent file.
	s2 := openT(t, dir)
	defer s2.Close()
	if recs := drainReplay(t, s2); len(recs) != files {
		t.Fatalf("reopen replayed %d records, want the image's %d nodes and no tail", len(recs), files)
	}
	verify(s2, "reopened")
}

func TestPagerTruncateZeroesTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	drainReplay(t, s)

	full := bytes.Repeat([]byte{0xab}, 3*storage.BlockSize)
	if err := s.Write(2, 0, full, true, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Shrink to mid-block, then grow again: everything past the shrink
	// point must read as zeros.
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

	check := func(st *Store, label string) {
		t.Helper()
		got := readAllT(t, st, 2, grow)
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
	checkpointT(t, s, 4, 1, regNode(2, grow))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	drainReplay(t, s2)
	check(s2, "reopened")
}

// freeSlots returns the slots the allocator hands out before growing
// the extent file.
func freeSlots(s *Store) []uint64 {
	s.pg.allocMu.Lock()
	defer s.pg.allocMu.Unlock()
	return append([]uint64(nil), s.pg.free...)
}

// TestPagerSlotReuseDeferred: slots freed by Remove must not be
// handed out again until two checkpoints later, so both retained
// images keep referencing valid bindings.
func TestPagerSlotReuseDeferred(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
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
	if n := len(freeSlots(s)); n != 0 {
		t.Fatalf("%d slots reusable one checkpoint after the free, want 0", n)
	}
	// Third checkpoint promotes the freed generation.
	checkpointT(t, s, 5, 1, regNode(3, 64<<10), regNode(4, 64<<10))
	if len(freeSlots(s)) == 0 {
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

// slotBytes reads slot's bytes straight from the extent file.
func slotBytes(t *testing.T, dir string, slot uint64) []byte {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, ExtentsName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, storage.BlockSize)
	if _, err := f.ReadAt(b, int64(slot*storage.BlockSize)); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPagerRecycledSlotReadsClean: a slot freed and handed out again
// two checkpoints later still holds its old bytes. A partial write
// that gives a block that slot must leave zeros outside the written
// range, in the slot itself, live and after a checkpointed reopen.
func TestPagerRecycledSlotReadsClean(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	drainReplay(t, s)
	stale := bytes.Repeat([]byte{0xAA}, storage.BlockSize)
	if err := s.Write(2, 0, stale, true, 1, nil); err != nil {
		t.Fatal(err)
	}
	checkpointT(t, s, 4, 1, regNode(2, storage.BlockSize))
	// File 2 is gone from the next image, which frees its slot; the one
	// after promotes it to the free list.
	checkpointT(t, s, 4, 1)
	checkpointT(t, s, 4, 1)
	free := freeSlots(s)
	if len(free) != 1 {
		t.Fatalf("free slots %v after two checkpoints without file 2, want its one slot", free)
	}
	if !bytes.Equal(slotBytes(t, dir, free[0]), stale) {
		t.Fatal("the freed slot no longer holds its old bytes: the test proves nothing")
	}

	const at = 100
	if err := s.Write(3, at, []byte("fresh"), true, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(3, storage.BlockSize); err != nil {
		t.Fatal(err)
	}
	if slot := s.pg.shard(3).files[3].slots[0]; slot != free[0] {
		t.Fatalf("file 3's block took slot %d, not the recycled slot %d", slot, free[0])
	}
	want := make([]byte, storage.BlockSize)
	copy(want[at:], "fresh")
	if !bytes.Equal(slotBytes(t, dir, free[0]), want) {
		t.Fatal("the recycled slot shows its old bytes outside the write")
	}
	if !bytes.Equal(readAllT(t, s, 3, storage.BlockSize), want) {
		t.Fatal("live: the block in a recycled slot reads its old bytes outside the write")
	}

	checkpointT(t, s, 4, 1, regNode(3, storage.BlockSize))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	drainReplay(t, s2)
	if !bytes.Equal(readAllT(t, s2, 3, storage.BlockSize), want) {
		t.Fatal("reopened: the block in a recycled slot reads its old bytes outside the write")
	}
}

// TestPagerHoleReadsZeros: blocks a file never wrote have no slot and
// read as zeros without an extent read, and the tail of a slot that
// the extent file ends inside (a crash cut its write short) reads as
// zeros too.
func TestPagerHoleReadsZeros(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	drainReplay(t, s)
	const id = 2
	// The last byte of block 3: blocks 0-2 are holes.
	if err := s.Write(id, 4*storage.BlockSize-1, []byte{1}, false, 1, nil); err != nil {
		t.Fatal(err)
	}
	before := s.StorageStats().Pager.Faults
	want := make([]byte, 4*storage.BlockSize)
	want[len(want)-1] = 1
	if !bytes.Equal(readAllT(t, s, id, 4*storage.BlockSize), want) {
		t.Fatal("a read over three holes and a written block shows bytes nobody wrote")
	}
	if n := s.StorageStats().Pager.Faults - before; n != 1 {
		t.Fatalf("a read over three holes and a written block took %d extent reads, want 1", n)
	}

	// A short slot: the extent file ends inside the last slot written.
	stale := bytes.Repeat([]byte{0xAA}, storage.BlockSize)
	if err := s.Write(id, 4*storage.BlockSize, stale, false, 2, nil); err != nil {
		t.Fatal(err)
	}
	st, err := s.pg.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.pg.f.Truncate(st.Size() - 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, storage.BlockSize)
	if err := s.ReadAt(id, 4*storage.BlockSize, got); err != nil {
		t.Fatal(err)
	}
	copy(want, stale)
	clear(want[storage.BlockSize-100:])
	if !bytes.Equal(got, want[:storage.BlockSize]) {
		t.Fatal("the unwritten tail of a short slot does not read as zeros")
	}
}

// TestPagerClosedRefusesEveryEntryPoint: once closed, the pager
// answers every call with errPagerClosed.
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
		"sync":            p.sync(),
		"checkpointImage": ckptErr,
	} {
		if !errors.Is(err, errPagerClosed) {
			t.Errorf("%s on a closed pager: %v, want %v", name, err, errPagerClosed)
		}
	}
}

// TestPagerCloseRace: readers, writers, a truncating churner and
// PrepareCheckpoint run while CrashRestart closes the pager they hold
// and then Close closes its successor. Every call returns its data or
// an error, each call that starts after Close returns fails, and once
// a pager's close returns it does no extent I/O: CrashRestart has
// reopened the same extent file, which a straggler of the old pager
// must not touch.
func TestPagerCloseRace(t *testing.T) {
	s := openT(t, t.TempDir())
	drainReplay(t, s)
	const files = 4
	const size = 64 << 10
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

	extentIO := func(p *pager) uint64 { return p.reads.Load() + p.writes.Load() }
	time.Sleep(30 * time.Millisecond)
	_, orphan := s.state()
	if err := s.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	orphanIO := extentIO(orphan)
	phase.Store(1)
	drainReplay(t, s)
	time.Sleep(30 * time.Millisecond)
	_, succ := s.state()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	succIO := extentIO(succ)
	closed.Store(true)
	phase.Store(2)
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	if calls[0].Load() == 0 || calls[1].Load() == 0 {
		t.Fatalf("successful calls before the crash %d, before the close %d: the race never ran", calls[0].Load(), calls[1].Load())
	}
	if got := extentIO(orphan); got != orphanIO {
		t.Fatalf("the pager CrashRestart closed did %d extent reads and writes after its close returned", got-orphanIO)
	}
	if got := extentIO(succ); got != succIO {
		t.Fatalf("the pager Close closed did %d extent reads and writes after its close returned", got-succIO)
	}
}
