package diskstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
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

// probationShare bounds probation to budget/probationShare blocks.
const probationShare = 8

// prepareBatch bounds how many blocks flushDirty writes back under one
// hold of a shard lock, so a writer to a file in that shard waits for
// at most this many pwrites.
const prepareBatch = 64

// errPagerClosed is what every entry point of a closed pager returns.
var errPagerClosed = errors.New("diskstore: pager closed")

// pager is the paged serving copy of file content: a bounded set of
// resident blocks over an extent file. Hot blocks live in memory;
// cold ones are paged in on demand and evicted (2Q, see evictOver), with
// dirty blocks written back to their slot on the way out. Durability never
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
	probCap  uint64 // the most blocks on probation: budget/probationShare
	shards   [pagerShards]pagerShard
	ghosts   ghostList
	gens     atomic.Uint64 // the last pfile generation handed out

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

	resident   atomic.Uint64 // resident blocks, all shards
	probation  atomic.Uint64 // resident blocks on probation, all shards
	faults     atomic.Uint64
	evictions  atomic.Uint64
	promotions atomic.Uint64 // blocks admitted protected off a ghost key
	wbFails    atomic.Uint64 // abandoned evictions (write-back errors)
}

type pagerShard struct {
	mu        sync.Mutex
	closed    bool // set by close; block buffers may be unmapped
	files     map[uint64]*pfile
	ring      []*pblock // CLOCK ring of protected blocks + not-yet-reaped dead
	hand      int
	probation []*pblock // probation blocks, oldest first, + not-yet-reaped dead
	prot      int       // resident protected blocks in this shard
	prob      int       // and resident probation blocks
}

type pfile struct {
	size   uint64
	gen    uint64             // names this incarnation in ghost keys
	blocks map[uint64]*pblock // resident, by block number
	slots  map[uint64]uint64  // block number -> extent slot
}

type pblock struct {
	id, bno                     uint64
	data                        []byte
	dirty, ref, dead, protected bool
}

// ghostList holds the keys of the last size blocks evicted from
// probation: one list, since a whole file lives in one shard. Its lock
// is taken under a shard lock, never the other way round.
type ghostList struct {
	mu   sync.Mutex
	at   map[ghostKey]uint64 // key -> the add that made it a ghost
	keys []ghostKey          // ring, grown to size: keys[n%size] is the oldest once full
	size uint64
	n    uint64 // adds so far
}

// ghostKey names a block of one incarnation of a file, so a removed
// or shrunk file's ghosts never match it again and age out unread.
type ghostKey struct{ id, bno, gen uint64 }

func (g *ghostList) add(k ghostKey) {
	g.mu.Lock()
	if g.n < g.size {
		g.keys = append(g.keys, k)
	} else {
		// Overwrite the oldest; forget it unless taken and added since.
		slot := &g.keys[g.n%g.size]
		if g.at[*slot] == g.n-g.size {
			delete(g.at, *slot)
		}
		*slot = k
	}
	g.at[k] = g.n
	g.n++
	g.mu.Unlock()
}

// take reports whether k is a ghost, and forgets it if so.
func (g *ghostList) take(k ghostKey) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.at[k]
	delete(g.at, k)
	return ok
}

func newPager(path string, hotBytes uint64) (*pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, err
	}
	if hotBytes == 0 {
		hotBytes = DefaultHotBytes
	}
	budget := max(hotBytes/storage.BlockSize, 1)
	p := &pager{f: f, hotBytes: hotBytes, budget: budget, probCap: max(budget/probationShare, 1), blocks: slab.New(storage.BlockSize)}
	// Probation and the ghosts together span the budget, so a block
	// touched again within a budget's worth of admissions is promoted.
	p.ghosts = ghostList{size: max(budget-p.probCap, 1), at: make(map[ghostKey]uint64)}
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
			for _, b := range slices.Concat(sh.ring, sh.probation) {
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
	pf := &pfile{size: size, gen: p.gens.Add(1), blocks: make(map[uint64]*pblock), slots: make(map[uint64]uint64, len(bnos))}
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
func (p *pager) getFile(sh *pagerShard, id uint64, create bool) *pfile {
	pf := sh.files[id]
	if pf == nil && create {
		pf = &pfile{gen: p.gens.Add(1), blocks: make(map[uint64]*pblock), slots: make(map[uint64]uint64)}
		sh.files[id] = pf
	}
	return pf
}

// drop ends b's residency — eviction, truncation or removal — and
// returns its buffer to the block memory. b stays in its queue, marked
// dead, until an eviction or admit reaps it. Caller holds sh.mu.
func (p *pager) drop(sh *pagerShard, b *pblock) {
	if pf := sh.files[b.id]; pf != nil {
		delete(pf.blocks, b.bno)
	}
	b.dead = true
	p.blocks.Put(b.data)
	b.data = nil
	if b.protected {
		sh.prot--
	} else {
		sh.prob--
		p.probation.Add(^uint64(0))
	}
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

// admit makes b resident, protected if its key is a ghost and on
// probation otherwise, and evicts to make room for it. Caller holds
// sh.mu.
func (p *pager) admit(sh *pagerShard, pf *pfile, b *pblock) {
	b.protected = p.ghosts.take(ghostKey{b.id, b.bno, pf.gen})
	pf.blocks[b.bno] = b
	q, live := &sh.probation, &sh.prob
	if b.protected {
		q, live = &sh.ring, &sh.prot
	}
	// Reap dead entries, so a queue whose blocks truncation or removal
	// dropped stays proportional to residency.
	if n := *live; len(*q) > 2*n+8 {
		*q, sh.hand = reap(*q), 0
	}
	*q = append(*q, b)
	*live++
	p.resident.Add(1)
	if b.protected {
		p.promotions.Add(1)
	} else {
		p.probation.Add(1)
	}
	p.evictOver(sh, b)
}

// reap returns q without its dead entries, in order.
func reap(q []*pblock) []*pblock {
	kept := q[:0]
	for _, e := range q {
		if !e.dead {
			kept = append(kept, e)
		}
	}
	clear(q[len(kept):])
	return kept
}

// evictOver evicts within sh, down to one block, the shard's oldest
// probation block while probation is over its bound, and a CLOCK victim
// among its protected blocks (or, with none, the oldest probation
// block) while residency is over budget. An evicted probation block
// leaves its key in the ghost list. Dirty victims write back to their
// slot (allocating one on first eviction). pin is the block the caller
// is installing: its data is copied in only after evictOver returns,
// so it is never chosen. Caller holds sh.mu.
func (p *pager) evictOver(sh *pagerShard, pin *pblock) {
	for sh.prot+sh.prob > 1 {
		var b *pblock
		if p.probation.Load() > p.probCap {
			b = sh.oldest(pin)
		}
		if b == nil && p.resident.Load() > p.budget {
			if b = sh.clock(pin); b == nil {
				b = sh.oldest(pin)
			}
		}
		if b == nil {
			return
		}
		if err := p.writeBack(sh, b); err != nil {
			// Leave the block resident; the next eviction retries.
			// Durability is unaffected (the WAL holds the data), but
			// residency can sit above budget until write-backs succeed,
			// so count the failure where StorageStats can surface it.
			p.wbFails.Add(1)
			b.ref = true
			if !b.protected { // retry it last, so the blocks behind it still go
				sh.probation = append(sh.probation[1:], b)
			}
			return
		}
		if !b.protected {
			p.ghosts.add(ghostKey{b.id, b.bno, sh.files[b.id].gen})
		}
		// Readers copy out under sh.mu and nothing else keeps a dead
		// block's bytes, so the buffer can serve the next install.
		p.drop(sh, b)
		p.evictions.Add(1)
	}
}

// oldest reaps dead entries off the front of probation and returns the
// oldest block there, or nil if that is pin (the newest) or none.
func (sh *pagerShard) oldest(pin *pblock) *pblock {
	for len(sh.probation) > 0 && sh.probation[0].dead {
		sh.probation[0] = nil
		sh.probation = sh.probation[1:]
	}
	if len(sh.probation) == 0 || sh.probation[0] == pin {
		return nil
	}
	return sh.probation[0]
}

// clock advances the hand, reaping dead entries and clearing reference
// bits, to the next protected victim; nil if none but pin is protected.
func (sh *pagerShard) clock(pin *pblock) *pblock {
	if sh.prot == 0 || sh.prot == 1 && pin != nil && pin.protected {
		return nil
	}
	for {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		b := sh.ring[sh.hand]
		switch {
		case b.dead:
			last := len(sh.ring) - 1
			sh.ring[sh.hand], sh.ring[last] = sh.ring[last], nil
			sh.ring = sh.ring[:last]
		case b == pin:
			sh.hand++
		case b.ref:
			b.ref = false
			sh.hand++
		default:
			return b
		}
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

// rebalance evicts across shards until residency and probation are
// back under their bounds. Called with no shard lock held and takes one
// shard lock at a time, so it can never deadlock with in-shard eviction.
// It exists for the insert-into-a-near-empty-shard case: in-shard
// eviction can only strip the inserting shard down to one block, so the
// overflow must come out of whichever shards still hold the excess.
func (p *pager) rebalance() {
	for i := 0; i < pagerShards && (p.resident.Load() > p.budget || p.probation.Load() > p.probCap); i++ {
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
	pf := p.getFile(sh, id, false)
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
	pf := p.getFile(sh, id, true)
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
	pf := p.getFile(sh, id, true)
	if size < pf.size {
		// A new generation forgets the file's ghosts.
		pf.gen = p.gens.Add(1)
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
		blocks := slices.Concat(sh.ring, sh.probation)
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
	res := p.resident.Load()
	prob := min(p.probation.Load(), res)
	return &storage.PagerStats{
		HotBytes:          p.hotBytes,
		ResidentBytes:     res * storage.BlockSize,
		ProbationBytes:    prob * storage.BlockSize,
		ProtectedBytes:    (res - prob) * storage.BlockSize,
		GhostPromotions:   p.promotions.Load(),
		Faults:            p.faults.Load(),
		Evictions:         p.evictions.Load(),
		WriteBackFailures: p.wbFails.Load(),
		MappedBytes:       p.blocks.Mapped(),
	}
}
