package diskstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/slab"
	"repro/internal/storage"
)

// ExtentsName is the cold-extent file created inside the store
// directory: an array of BlockSize slots that blocks page out to and
// fault back in from, letting the served dataset exceed the hot
// budget.
const ExtentsName = "extents.dat"

// DefaultHotBytes is the residency budget when Options.HotBytes is 0.
const DefaultHotBytes = 64 << 20

// pagerShards fixes the shard count. In-shard eviction keeps at least
// one block per shard, so the residency floor is pagerShards blocks;
// rebalance evicts across shards after each call, so residency settles
// at or under the budget whenever the budget covers that floor.
const pagerShards = 8

// prepareBatch bounds how many blocks flushDirty writes back under one
// hold of a shard lock, so a writer to a file in that shard waits for
// at most this many pwrites.
const prepareBatch = 64

// errPagerClosed is what every entry point of a closed pager returns.
var errPagerClosed = errors.New("diskstore: pager closed")

// pager is the paged serving copy of file content: a bounded set of
// resident blocks over an extent file. Hot blocks live in memory;
// cold ones are paged in on demand and evicted CLOCK-wise, with dirty
// blocks written back to their slot on the way out. Durability never
// depends on the extent file between checkpoints — every write is
// journaled — so evictions write without fsync; checkpoints fsync the
// extent file before publishing an image that references its slots.
//
// Invariant: a (file, block) pair with no resident block and no slot
// reads as zeros, and the bytes of any block past the file's size are
// zero (truncate zeroes the boundary tail when it shrinks). Slot
// reuse is deferred two checkpoint generations so both retained
// images only ever reference slots whose binding hasn't changed.
type pager struct {
	f        *os.File
	hotBytes uint64
	budget   uint64 // hotBytes in whole blocks
	shards   [pagerShards]pagerShard

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

	// blocks is the block memory: every resident block's buffer comes
	// from it, mapped outside the Go heap, and goes back to it when
	// the block stops being resident. Its lock is taken under a shard
	// lock, never the other way round.
	blocks *slab.Pool

	resident  atomic.Uint64 // resident blocks, all shards
	faults    atomic.Uint64
	evictions atomic.Uint64
	wbFails   atomic.Uint64 // abandoned evictions (write-back errors)
}

type pagerShard struct {
	mu     sync.Mutex
	closed bool // set by close; block buffers may be unmapped
	files  map[uint64]*pfile
	ring   []*pblock // CLOCK ring: resident + not-yet-reaped dead
	hand   int
	live   int // resident blocks in this shard
}

type pfile struct {
	size   uint64
	blocks map[uint64]*pblock // resident, by block number
	slots  map[uint64]uint64  // block number -> extent slot
}

type pblock struct {
	id, bno uint64
	data    []byte
	dirty   bool
	ref     bool
	dead    bool
}

func newPager(path string, hotBytes uint64) (*pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, err
	}
	if hotBytes == 0 {
		hotBytes = DefaultHotBytes
	}
	p := &pager{f: f, hotBytes: hotBytes, budget: max(hotBytes/storage.BlockSize, 1), blocks: slab.New(storage.BlockSize)}
	for i := range p.shards {
		p.shards[i].files = make(map[uint64]*pfile)
	}
	return p, nil
}

func (p *pager) shard(id uint64) *pagerShard { return &p.shards[id%pagerShards] }

// lock takes sh.mu and holds it unless the pager is closed. Every read
// or write of block bytes happens between a successful lock and the
// matching sh.mu.Unlock.
func (sh *pagerShard) lock() error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return errPagerClosed
	}
	return nil
}

// close marks every shard closed, one shard lock at a time, returning
// each resident block's buffer as it goes, and then closes the block
// memory, which unmaps every slab. An op that still holds the pager
// (CrashRestart orphans it while ops may run) gets errPagerClosed from
// its next lock, and none is inside a shard lock once every shard is
// marked, so no block byte is touched after its slab is gone. Closing
// again closes nothing.
func (p *pager) close() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		if !sh.closed {
			sh.closed = true
			for _, b := range sh.ring {
				if !b.dead {
					p.blocks.Put(b.data)
					b.data = nil
				}
			}
		}
		sh.mu.Unlock()
	}
	err := p.blocks.Close()
	if n := p.blocks.Live(); n != 0 {
		// A buffer no resident block owns: its slab stays mapped.
		err = errors.Join(err, fmt.Errorf("diskstore: %d block buffers leaked at close", n))
	}
	return errors.Join(err, p.f.Close())
}

// install registers one file's extent index from a checkpoint image.
// Boot-time only, before the pager is shared.
func (p *pager) install(id, size uint64, bnos, slots []uint64) {
	sh := p.shard(id)
	pf := &pfile{size: size, blocks: make(map[uint64]*pblock), slots: make(map[uint64]uint64, len(bnos))}
	for i, bno := range bnos {
		pf.slots[bno] = slots[i]
	}
	sh.files[id] = pf
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

// getFile returns the file, creating it when create is set. Caller
// holds sh.mu.
func (sh *pagerShard) getFile(id uint64, create bool) *pfile {
	pf := sh.files[id]
	if pf == nil && create {
		pf = &pfile{blocks: make(map[uint64]*pblock), slots: make(map[uint64]uint64)}
		sh.files[id] = pf
	}
	return pf
}

// drop ends b's residency — eviction, truncation or removal — and
// returns its buffer to the block memory. b stays in the CLOCK ring,
// marked dead, until CLOCK or insert reaps it. Caller holds sh.mu.
func (p *pager) drop(sh *pagerShard, b *pblock) {
	if pf := sh.files[b.id]; pf != nil {
		delete(pf.blocks, b.bno)
	}
	b.dead = true
	p.blocks.Put(b.data)
	b.data = nil
	sh.live--
	p.resident.Add(^uint64(0))
}

// fault brings one block into residency: from its slot when it has
// one, as zeros when it does not (a hole). Caller holds sh.mu.
func (p *pager) fault(sh *pagerShard, pf *pfile, id, bno uint64) (*pblock, error) {
	buf, err := p.blocks.Get()
	if err != nil {
		return nil, err
	}
	n := 0
	if slot, ok := pf.slots[bno]; ok {
		// A short read at the extent file's end just means the tail of
		// the slot was never written — those bytes read as zeros.
		n, err = p.f.ReadAt(buf, int64(slot)*storage.BlockSize)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			p.blocks.Put(buf)
			return nil, err
		}
	}
	clear(buf[n:])
	b := &pblock{id: id, bno: bno, data: buf, ref: true}
	p.faults.Add(1)
	p.admit(sh, pf, b)
	return b, nil
}

// admit makes b resident and evicts to make room for it. Caller holds
// sh.mu.
func (p *pager) admit(sh *pagerShard, pf *pfile, b *pblock) {
	pf.blocks[b.bno] = b
	sh.insert(b)
	p.resident.Add(1)
	sh.live++
	p.evictOver(sh, b)
}

// insert adds b to the CLOCK ring, compacting reaped entries when the
// ring has grown well past the live population.
func (sh *pagerShard) insert(b *pblock) {
	if len(sh.ring) > 2*sh.live+8 {
		kept := sh.ring[:0]
		for _, e := range sh.ring {
			if !e.dead {
				kept = append(kept, e)
			}
		}
		sh.ring = kept
		sh.hand = 0
	}
	sh.ring = append(sh.ring, b)
}

// evictOver runs CLOCK within sh until the global residency is back
// under budget or this shard is down to one block. Dirty victims
// write back to their slot (allocating one on first eviction); clean
// victims just drop. pin is the block the caller is in the middle of
// installing — its data is copied in only after evictOver returns, so
// evicting it would silently drop the write; CLOCK skips it outright.
// Caller holds sh.mu.
func (p *pager) evictOver(sh *pagerShard, pin *pblock) {
	for p.resident.Load() > p.budget && sh.live > 1 && len(sh.ring) > 0 {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		b := sh.ring[sh.hand]
		if b.dead {
			sh.ring[sh.hand] = sh.ring[len(sh.ring)-1]
			sh.ring = sh.ring[:len(sh.ring)-1]
			continue
		}
		if b == pin {
			sh.hand++
			continue
		}
		if b.ref {
			b.ref = false
			sh.hand++
			continue
		}
		if err := p.writeBack(sh, b); err != nil {
			// Leave the block resident; the next eviction retries.
			// Durability is unaffected (the WAL holds the data), but
			// residency can sit above budget until write-backs succeed,
			// so count the failure where StorageStats can surface it.
			p.wbFails.Add(1)
			b.ref = true
			return
		}
		// Readers copy out under sh.mu and nothing else keeps a dead
		// block's bytes, so the buffer can serve the next install.
		p.drop(sh, b)
		sh.ring[sh.hand] = sh.ring[len(sh.ring)-1]
		sh.ring = sh.ring[:len(sh.ring)-1]
		p.evictions.Add(1)
	}
}

// writeBack persists a dirty block to its slot. Caller holds sh.mu.
func (p *pager) writeBack(sh *pagerShard, b *pblock) error {
	if !b.dirty {
		return nil
	}
	pf := sh.files[b.id]
	if pf == nil {
		return nil
	}
	slot, ok := pf.slots[b.bno]
	if !ok {
		slot = p.allocSlot()
		pf.slots[b.bno] = slot
	}
	if _, err := p.f.WriteAt(b.data, int64(slot)*storage.BlockSize); err != nil {
		return err
	}
	b.dirty = false
	return nil
}

// rebalance evicts across shards until global residency is back under
// budget. Called with no shard lock held and takes one shard lock at a
// time, so it can never deadlock with in-shard eviction. It exists for
// the insert-into-a-near-empty-shard case: in-shard CLOCK can only
// strip the inserting shard down to one block, so the overflow must
// come out of whichever shards still hold the excess.
func (p *pager) rebalance() {
	for i := 0; i < pagerShards && p.resident.Load() > p.budget; i++ {
		sh := &p.shards[i]
		if sh.lock() != nil {
			continue
		}
		p.evictOver(sh, nil)
		sh.mu.Unlock()
	}
}

// ReadAt copies [off, off+len(dst)) of id into dst, faulting cold
// blocks in as needed.
func (p *pager) ReadAt(id, off uint64, dst []byte) error {
	err := p.readAt(id, off, dst)
	p.rebalance()
	return err
}

func (p *pager) readAt(id, off uint64, dst []byte) error {
	sh := p.shard(id)
	if err := sh.lock(); err != nil {
		return err
	}
	defer sh.mu.Unlock()
	pf := sh.getFile(id, false)
	if pf == nil || off+uint64(len(dst)) > pf.size {
		return fmt.Errorf("diskstore: read of id %d [%d,+%d) beyond stored extent", id, off, len(dst))
	}
	for len(dst) > 0 {
		bno := off / storage.BlockSize
		bo := off % storage.BlockSize
		n := min(uint64(len(dst)), storage.BlockSize-bo)
		b := pf.blocks[bno]
		if b == nil {
			var err error
			if b, err = p.fault(sh, pf, id, bno); err != nil {
				return err
			}
		}
		b.ref = true
		copy(dst[:n], b.data[bo:bo+n])
		dst = dst[n:]
		off += n
	}
	return nil
}

// WriteAt stores data at off, extending the file (zero-filled) as
// needed. Whole-block overwrites never fault; partial blocks fault
// their old content in first.
func (p *pager) WriteAt(id, off uint64, data []byte) error {
	err := p.writeAt(id, off, data)
	p.rebalance()
	return err
}

func (p *pager) writeAt(id, off uint64, data []byte) error {
	sh := p.shard(id)
	if err := sh.lock(); err != nil {
		return err
	}
	defer sh.mu.Unlock()
	pf := sh.getFile(id, true)
	for len(data) > 0 {
		bno := off / storage.BlockSize
		bo := off % storage.BlockSize
		n := min(uint64(len(data)), storage.BlockSize-bo)
		b := pf.blocks[bno]
		if b == nil {
			if bo == 0 && n == storage.BlockSize {
				// Full overwrite: the old content is irrelevant.
				buf, err := p.blocks.Get()
				if err != nil {
					return err
				}
				b = &pblock{id: id, bno: bno, data: buf, ref: true}
				p.admit(sh, pf, b)
			} else {
				var err error
				if b, err = p.fault(sh, pf, id, bno); err != nil {
					return err
				}
			}
		}
		copy(b.data[bo:bo+n], data[:n])
		b.dirty = true
		b.ref = true
		data = data[n:]
		off += n
	}
	if off > pf.size {
		pf.size = off
	}
	return nil
}

// Truncate sets the size of id, creating it if absent. Shrinking
// drops whole blocks past the new end and zeroes the boundary tail so
// a later grow reads zeros there.
func (p *pager) Truncate(id, size uint64) error {
	err := p.truncate(id, size)
	p.rebalance()
	return err
}

func (p *pager) truncate(id, size uint64) error {
	sh := p.shard(id)
	if err := sh.lock(); err != nil {
		return err
	}
	defer sh.mu.Unlock()
	pf := sh.getFile(id, true)
	if size < pf.size {
		keep := (size + storage.BlockSize - 1) / storage.BlockSize
		var freed []uint64
		for bno, b := range pf.blocks {
			if bno >= keep {
				p.drop(sh, b)
			}
		}
		for bno, slot := range pf.slots {
			if bno >= keep {
				freed = append(freed, slot)
				delete(pf.slots, bno)
			}
		}
		p.releaseSlots(freed)
		if bo := size % storage.BlockSize; bo != 0 {
			bno := size / storage.BlockSize
			b := pf.blocks[bno]
			if b == nil {
				if _, ok := pf.slots[bno]; ok {
					var err error
					if b, err = p.fault(sh, pf, id, bno); err != nil {
						return err
					}
				}
			}
			if b != nil {
				for i := bo; i < storage.BlockSize; i++ {
					b.data[i] = 0
				}
				b.dirty = true
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
	for _, b := range pf.blocks {
		p.drop(sh, b)
	}
	var freed []uint64
	for _, slot := range pf.slots {
		freed = append(freed, slot)
	}
	p.releaseSlots(freed)
	delete(sh.files, id)
}

// flushDirty does checkpointImage's flush with writers running: it
// writes the resident blocks that are dirty back to their slots,
// prepareBatch per hold of a shard lock, then fsyncs the extent file.
// Blocks dirtied behind its back stay dirty, so a steady writer cannot
// keep it going. It writes slots exactly as evictions do at arbitrary
// moments, so a crash at any point in it is a crash between
// checkpoints.
func (p *pager) flushDirty() error {
	for i := range p.shards {
		sh := &p.shards[i]
		if err := sh.lock(); err != nil {
			return err
		}
		blocks := append([]*pblock(nil), sh.ring...)
		sh.mu.Unlock()
		for len(blocks) > 0 {
			if err := sh.lock(); err != nil {
				return err
			}
			wrote := 0
			for len(blocks) > 0 && wrote < prepareBatch {
				b := blocks[0]
				blocks = blocks[1:]
				if b.dead || !b.dirty {
					continue
				}
				if err := p.writeBack(sh, b); err != nil {
					sh.mu.Unlock()
					return err
				}
				wrote++
			}
			sh.mu.Unlock()
		}
	}
	return p.f.Sync()
}

// checkpointImage garbage-collects files not in live, flushes every
// dirty block to its slot, fsyncs the extent file, and then emits one
// extent-index entry per live file. The caller guarantees no writers
// are running (vfs quiesce); concurrent readers may fault blocks in,
// but after the flush pass every block is clean, so their evictions
// never touch a slot and the emitted index stays exact.
func (p *pager) checkpointImage(live map[uint64]struct{}, emit func(id, size uint64, bnos, slots []uint64) error) (files uint64, err error) {
	for i := range p.shards {
		sh := &p.shards[i]
		if err := sh.lock(); err != nil {
			return 0, err
		}
		for id := range sh.files {
			if _, ok := live[id]; !ok {
				p.removeLocked(sh, id)
			}
		}
		for _, pf := range sh.files {
			for _, b := range pf.blocks {
				if err := p.writeBack(sh, b); err != nil {
					sh.mu.Unlock()
					return 0, err
				}
			}
		}
		sh.mu.Unlock()
	}
	if err := p.f.Sync(); err != nil {
		return 0, err
	}
	for i := range p.shards {
		sh := &p.shards[i]
		if err := sh.lock(); err != nil {
			return 0, err
		}
		for id, pf := range sh.files {
			bnos := make([]uint64, 0, len(pf.slots))
			slots := make([]uint64, 0, len(pf.slots))
			for bno, slot := range pf.slots {
				bnos = append(bnos, bno)
				slots = append(slots, slot)
			}
			size := pf.size
			if err := emit(id, size, bnos, slots); err != nil {
				sh.mu.Unlock()
				return 0, err
			}
			files++
		}
		sh.mu.Unlock()
	}
	return files, nil
}

// nextSlot returns the allocator watermark for the checkpoint trailer.
func (p *pager) nextSlot() uint64 {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	return p.next
}

// stats returns the pager's observability block.
func (p *pager) stats() *storage.PagerStats {
	return &storage.PagerStats{
		HotBytes:          p.hotBytes,
		ResidentBytes:     p.resident.Load() * storage.BlockSize,
		Faults:            p.faults.Load(),
		Evictions:         p.evictions.Load(),
		WriteBackFailures: p.wbFails.Load(),
		MappedBytes:       p.blocks.Mapped(),
	}
}
