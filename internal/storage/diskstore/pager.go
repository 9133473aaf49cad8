package diskstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// ExtentsName is the extent file created inside the store directory:
// an array of BlockSize slots holding file content, read and written
// in place. Like the paper's FFS server, the store leaves caching its
// blocks to the kernel.
const ExtentsName = "extents.dat"

// DefaultHotBytes is kept for callers that set Options.HotBytes,
// which has no effect.
const DefaultHotBytes = 64 << 20

// pagerShards fixes the shard count: a file lives in shard id%8, whose
// lock guards the file's index and its extent I/O.
const pagerShards = 8

// errPagerClosed is what every entry point of a closed pager returns.
var errPagerClosed = errors.New("diskstore: pager closed")

// pager maps file content onto the extent file: per file, a size and
// a block→slot index. Reads pread straight into the caller's buffer
// and writes pwrite only the bytes written, so the kernel's page cache
// is the only cache of content. Durability never depends on the extent
// file between checkpoints — every write is journaled — so writes are
// not fsynced; checkpoints fsync the file before publishing an image
// that references its slots.
//
// Invariant: a block with no slot (a hole) reads as zeros, and the
// bytes of any block past the file's size are zero. A block's first
// slot gets one whole-block write, zero-padded, so the stale bytes of
// a reused slot never show, and truncate zeroes the boundary tail when
// it shrinks. Slot reuse is deferred two checkpoint generations so
// both retained images only ever reference slots whose binding hasn't
// changed.
type pager struct {
	f      *os.File
	shards [pagerShards]pagerShard

	// Slot allocator. freed[0] collects slots released since the last
	// completed checkpoint, freed[1] the generation before; a
	// checkpoint promotes freed[1] to the free list. next is persisted
	// in checkpoint trailers so recovery never re-allocates a slot a
	// retained image references (slots freed in the window before a
	// crash leak until the file is recreated — bounded, and compacted
	// away whenever their ids are rewritten).
	allocMu sync.Mutex
	next    uint64
	free    []uint64
	freed   [2][]uint64

	reads      atomic.Uint64 // extent block reads
	writes     atomic.Uint64 // extent block writes
	writeFails atomic.Uint64 // extent block writes that failed
}

type pagerShard struct {
	mu     sync.RWMutex
	closed bool // set by close; the extent file may be closed
	files  map[uint64]*pfile
}

type pfile struct {
	size  uint64
	slots map[uint64]uint64 // block number -> extent slot
}

func newPager(path string) (*pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, err
	}
	p := &pager{f: f}
	for i := range p.shards {
		p.shards[i].files = make(map[uint64]*pfile)
	}
	return p, nil
}

func (p *pager) shard(id uint64) *pagerShard { return &p.shards[id%pagerShards] }

// lock takes sh.mu and holds it unless the pager is closed. Every
// extent write happens between a successful lock and the matching
// sh.mu.Unlock, every extent read between an rlock and its RUnlock.
func (sh *pagerShard) lock() error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return errPagerClosed
	}
	return nil
}

func (sh *pagerShard) rlock() error {
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return errPagerClosed
	}
	return nil
}

// close marks every shard closed, one shard lock at a time, and then
// closes the extent file. An op that still holds the pager
// (CrashRestart orphans it while ops may run) gets errPagerClosed from
// its next lock, and none is inside a shard lock once every shard is
// marked, so no extent I/O happens once close returns.
func (p *pager) close() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
	}
	return p.f.Close()
}

// install registers one file's extent index from a checkpoint image.
// Boot-time only, before the pager is shared.
func (p *pager) install(id, size uint64, bnos, slots []uint64) {
	pf := &pfile{size: size, slots: make(map[uint64]uint64, len(bnos))}
	for i, bno := range bnos {
		pf.slots[bno] = slots[i]
	}
	p.shard(id).files[id] = pf
}

// setNextSlot seeds the allocator watermark from a checkpoint trailer.
func (p *pager) setNextSlot(n uint64) { p.next = n }

func (p *pager) allocSlot() uint64 {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	s := p.next
	p.next++
	return s
}

// releaseSlots defers the slots' reuse two checkpoint generations.
func (p *pager) releaseSlots(slots []uint64) {
	if len(slots) == 0 {
		return
	}
	p.allocMu.Lock()
	p.freed[0] = append(p.freed[0], slots...)
	p.allocMu.Unlock()
}

// promoteFreed advances the deferred-free generations after a
// checkpoint completes: slots freed two checkpoints ago are no longer
// referenced by either retained image.
func (p *pager) promoteFreed() {
	p.allocMu.Lock()
	p.free = append(p.free, p.freed[1]...)
	p.freed[1] = p.freed[0]
	p.freed[0] = nil
	p.allocMu.Unlock()
}

// nextSlot returns the allocator watermark for the checkpoint trailer.
func (p *pager) nextSlot() uint64 {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	return p.next
}

// file returns id's file, creating it empty. Caller holds sh.mu.
func (sh *pagerShard) file(id uint64) *pfile {
	pf := sh.files[id]
	if pf == nil {
		pf = &pfile{slots: make(map[uint64]uint64)}
		sh.files[id] = pf
	}
	return pf
}

// ReadAt reads [off, off+len(dst)) of id into dst.
func (p *pager) ReadAt(id, off uint64, dst []byte) error {
	sh := p.shard(id)
	if err := sh.rlock(); err != nil {
		return err
	}
	defer sh.mu.RUnlock()
	pf := sh.files[id]
	if pf == nil || off+uint64(len(dst)) > pf.size {
		return fmt.Errorf("diskstore: read of id %d [%d,+%d) beyond stored extent", id, off, len(dst))
	}
	for len(dst) > 0 {
		bno, bo := off/storage.BlockSize, off%storage.BlockSize
		n := min(uint64(len(dst)), storage.BlockSize-bo)
		if err := p.readBlock(pf, bno, bo, dst[:n]); err != nil {
			return err
		}
		dst = dst[n:]
		off += n
	}
	return nil
}

// readBlock reads dst from block bno of pf, starting bo bytes in.
// Caller holds the shard lock.
func (p *pager) readBlock(pf *pfile, bno, bo uint64, dst []byte) error {
	slot, ok := pf.slots[bno]
	if !ok {
		clear(dst) // a hole
		return nil
	}
	p.reads.Add(1)
	// A short read at the extent file's end just means the tail of the
	// slot never reached the disk (a crash cut it) — those bytes read
	// as zeros.
	n, err := p.f.ReadAt(dst, int64(slot*storage.BlockSize+bo))
	if err != nil && err != io.EOF {
		return err
	}
	clear(dst[n:])
	return nil
}

// WriteAt stores data at off, extending the file (zero-filled) as
// needed.
func (p *pager) WriteAt(id, off uint64, data []byte) error {
	sh := p.shard(id)
	if err := sh.lock(); err != nil {
		return err
	}
	defer sh.mu.Unlock()
	pf := sh.file(id)
	for len(data) > 0 {
		bno, bo := off/storage.BlockSize, off%storage.BlockSize
		n := min(uint64(len(data)), storage.BlockSize-bo)
		if err := p.writeBlock(pf, bno, bo, data[:n]); err != nil {
			return err
		}
		data = data[n:]
		off += n
	}
	pf.size = max(pf.size, off)
	return nil
}

// writeBlock writes data into block bno of pf, starting bo bytes in,
// giving the block its first slot if it has none. Caller holds the
// shard lock.
func (p *pager) writeBlock(pf *pfile, bno, bo uint64, data []byte) error {
	slot, ok := pf.slots[bno]
	if !ok {
		slot = p.allocSlot()
		if len(data) < storage.BlockSize {
			block := make([]byte, storage.BlockSize)
			copy(block[bo:], data)
			data, bo = block, 0
		}
	}
	p.writes.Add(1)
	if _, err := p.f.WriteAt(data, int64(slot*storage.BlockSize+bo)); err != nil {
		// The caller returns the error; count it where StorageStats
		// surfaces it.
		p.writeFails.Add(1)
		if !ok {
			p.releaseSlots([]uint64{slot})
		}
		return err
	}
	pf.slots[bno] = slot
	return nil
}

// Truncate sets the size of id, creating it if absent. Shrinking
// frees the slots of whole blocks past the new end and zeroes the
// boundary tail so a later grow reads zeros there.
func (p *pager) Truncate(id, size uint64) error {
	sh := p.shard(id)
	if err := sh.lock(); err != nil {
		return err
	}
	defer sh.mu.Unlock()
	pf := sh.file(id)
	if size < pf.size {
		keep := (size + storage.BlockSize - 1) / storage.BlockSize
		var freed []uint64
		for bno, slot := range pf.slots {
			if bno >= keep {
				freed = append(freed, slot)
				delete(pf.slots, bno)
			}
		}
		p.releaseSlots(freed)
		bno, bo := size/storage.BlockSize, size%storage.BlockSize
		if _, ok := pf.slots[bno]; ok && bo != 0 {
			if err := p.writeBlock(pf, bno, bo, make([]byte, storage.BlockSize-bo)); err != nil {
				return err
			}
		}
	}
	pf.size = size
	return nil
}

// Remove drops all content of id.
func (p *pager) Remove(id uint64) error {
	sh := p.shard(id)
	if err := sh.lock(); err != nil {
		return err
	}
	defer sh.mu.Unlock()
	p.removeLocked(sh, id)
	return nil
}

func (p *pager) removeLocked(sh *pagerShard, id uint64) {
	pf := sh.files[id]
	if pf == nil {
		return
	}
	freed := make([]uint64, 0, len(pf.slots))
	for _, slot := range pf.slots {
		freed = append(freed, slot)
	}
	p.releaseSlots(freed)
	delete(sh.files, id)
}

// sync fsyncs the extent file, so every write before it is on disk.
func (p *pager) sync() error {
	err := p.f.Sync()
	if errors.Is(err, os.ErrClosed) {
		return errPagerClosed
	}
	return err
}

// checkpointImage garbage-collects files not in live, emits one
// extent-index entry per live file, and fsyncs the extent file, so the
// slots the entries name are on disk before the image that holds them
// is. The caller guarantees no writers are running (vfs quiesce), so
// the emitted index and the slots it names stay exact; concurrent
// readers are fine.
func (p *pager) checkpointImage(live map[uint64]struct{}, emit func(id, size uint64, bnos, slots []uint64) error) (files uint64, err error) {
	for i := range p.shards {
		sh := &p.shards[i]
		if err := sh.lock(); err != nil {
			return 0, err
		}
		for id, pf := range sh.files {
			if _, ok := live[id]; !ok {
				p.removeLocked(sh, id)
				continue
			}
			bnos := make([]uint64, 0, len(pf.slots))
			slots := make([]uint64, 0, len(pf.slots))
			for bno, slot := range pf.slots {
				bnos = append(bnos, bno)
				slots = append(slots, slot)
			}
			if err := emit(id, pf.size, bnos, slots); err != nil {
				sh.mu.Unlock()
				return 0, err
			}
			files++
		}
		sh.mu.Unlock()
	}
	return files, p.sync()
}

// stats returns the pager's observability block. Nothing is evicted:
// the store keeps no content in memory.
func (p *pager) stats() *storage.PagerStats {
	return &storage.PagerStats{
		Faults:            p.reads.Load(),
		WriteBackFailures: p.writeFails.Load(),
	}
}
