package nfs

// Client-side data block cache (the last of the paper's §3.3 caching
// enhancements to land): 8 KB-aligned blocks keyed by (file handle,
// block number), bounded by a byte budget with CLOCK eviction, and
// coherent by construction — a block may only be served while the
// file's *attribute* entry is live, so every event that already drops
// attributes (invalidation callback, lease expiry, local mutation)
// silently revokes the file's data too. Misses on full blocks go
// through a single-flight table so N concurrent readers of one cold
// block issue one READ.

import (
	"encoding/binary"
	"sync/atomic"
	"time"
)

// DataBlockSize is the cache's block granularity. It matches the 8 KB
// wire chunk the read-ahead and write-behind pipelines already use, so
// pipeline completions populate whole blocks.
const DataBlockSize = 8192

// DefaultDataCacheBytes is the data cache budget when ClientConfig
// leaves DataCacheBytes zero: 1024 blocks, enough to hold the paper's
// working sets without pretending to be a kernel page cache.
const DefaultDataCacheBytes = 8 << 20

// dataBlock is one cached block. data is immutable once the block is
// published: updates replace the slice (copy-on-write) rather than
// writing into it, so readers may retain sub-slices after the lock is
// released. ref is the CLOCK reference bit; it is atomic so the warm
// hit path can set it under the read lock.
type dataBlock struct {
	fhKey string
	blk   uint64
	data  []byte
	ref   atomic.Bool
	idx   int // position in dataCache.ring
}

// dataCache is the connection-wide block store. All fields except the
// blocks' ref bits are guarded by clientCore.mu (write mode); size is
// atomic only so Stats can read it without the lock.
type dataCache struct {
	max   int64
	size  atomic.Int64
	files map[string]map[uint64]*dataBlock
	// auth records which principals have proven access to a file by
	// completing a READ or WRITE over the wire under their own
	// credentials. Blocks are shared connection-wide like attributes,
	// but *served* only to proven principals: the server checks
	// permissions per RPC, so a cache hit must never hand one user
	// bytes another user fetched (see TestTwoUsersShareMountSafely).
	auth map[string]map[string]struct{}
	ring []*dataBlock // CLOCK order (insertion order, swap-removed)
	hand int
}

// readFlight is one in-progress cold-block READ. The leader resolves
// data/eof/err and then closes done; joiners block on done and share
// the result, so a thundering herd on one block costs one RPC.
type readFlight struct {
	done chan struct{}
	data []byte
	eof  bool
	err  error
}

// flightKey identifies a (principal, file, block) triple in the
// single-flight table. The principal is part of the key so one user
// never rides another user's READ past the server's permission check.
func flightKey(principal string, fh FH, blk uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], blk)
	return principal + "\x00" + string(fh) + string(b[:])
}

// blockSpan reports whether a read request lies within one cache
// block — the only shape the cache can serve or single-flight.
func blockSpan(offset uint64, count uint32) bool {
	return count > 0 && uint64(count) <= DataBlockSize &&
		offset/DataBlockSize == (offset+uint64(count)-1)/DataBlockSize
}

// insertLocked publishes data as the block's content, replacing any
// existing version, then enforces the byte budget. Caller holds the
// core lock in write mode and has already copied data if it aliases a
// caller-owned buffer.
func (dc *dataCache) insertLocked(fhKey string, blk uint64, data []byte, evictions *atomic.Uint64) {
	blocks := dc.files[fhKey]
	if blocks == nil {
		blocks = make(map[uint64]*dataBlock)
		dc.files[fhKey] = blocks
	}
	if old := blocks[blk]; old != nil {
		dc.size.Add(int64(len(data)) - int64(len(old.data)))
		old.data = data
		old.ref.Store(true)
	} else {
		b := &dataBlock{fhKey: fhKey, blk: blk, data: data, idx: len(dc.ring)}
		b.ref.Store(true)
		blocks[blk] = b
		dc.ring = append(dc.ring, b)
		dc.size.Add(int64(len(data)))
	}
	dc.evictLocked(evictions)
}

// evictLocked runs the CLOCK hand until the cache fits its budget:
// referenced blocks get a second chance, unreferenced ones go.
func (dc *dataCache) evictLocked(evictions *atomic.Uint64) {
	for dc.size.Load() > dc.max && len(dc.ring) > 0 {
		if dc.hand >= len(dc.ring) {
			dc.hand = 0
		}
		b := dc.ring[dc.hand]
		if b.ref.CompareAndSwap(true, false) {
			dc.hand++
			continue
		}
		dc.removeLocked(b)
		evictions.Add(1)
	}
}

// removeLocked unlinks one block from the file map and the CLOCK ring
// (swap-remove, fixing the moved block's index). The proven-principal
// set goes with the file's last block: with nothing left to serve it
// protects nothing, and the next wire transfer grants it again.
func (dc *dataCache) removeLocked(b *dataBlock) {
	blocks := dc.files[b.fhKey]
	delete(blocks, b.blk)
	if len(blocks) == 0 {
		delete(dc.files, b.fhKey)
		delete(dc.auth, b.fhKey)
	}
	last := len(dc.ring) - 1
	moved := dc.ring[last]
	dc.ring[b.idx] = moved
	moved.idx = b.idx
	dc.ring[last] = nil
	dc.ring = dc.ring[:last]
	dc.size.Add(-int64(len(b.data)))
}

// dropFileLocked discards every cached block of one file and its
// proven-principal set.
func (dc *dataCache) dropFileLocked(fhKey string) {
	for _, b := range dc.files[fhKey] {
		dc.removeLocked(b)
	}
	delete(dc.auth, fhKey)
}

// grantLocked records that principal completed a wire transfer on the
// file with its own credentials.
func (dc *dataCache) grantLocked(fhKey, principal string) {
	set := dc.auth[fhKey]
	if set == nil {
		set = make(map[string]struct{})
		dc.auth[fhKey] = set
	}
	set[principal] = struct{}{}
}

// dropRangeLocked discards the blocks overlapping [from, to).
func (dc *dataCache) dropRangeLocked(fhKey string, from, to uint64) {
	if to <= from {
		return
	}
	blocks := dc.files[fhKey]
	if blocks == nil {
		return
	}
	for blk := from / DataBlockSize; blk <= (to-1)/DataBlockSize; blk++ {
		if b := blocks[blk]; b != nil {
			dc.removeLocked(b)
		}
	}
}

// dataLookup serves a read from the cache if the request fits one
// block, the principal has proven access to the file, the file's
// attribute entry is live, and the block covers the requested range
// up to the file's current size. The returned slice aliases the cache
// and must not be modified. This is the warm hit path: one read lock,
// no allocation. It also keeps the hit and miss counts.
func (c *Client) dataLookup(fh FH, offset uint64, count uint32) ([]byte, bool, bool) {
	core := c.core
	if core.dc == nil || !blockSpan(offset, count) {
		return nil, false, false
	}
	core.rlock()
	data, eof, ok := c.serveLocked(fh, offset, count)
	core.mu.RUnlock()
	if ok {
		core.dataHits.Add(1)
	} else {
		core.dataMisses.Add(1)
	}
	return data, eof, ok
}

func (c *Client) serveLocked(fh FH, offset uint64, count uint32) ([]byte, bool, bool) {
	core, dc := c.core, c.core.dc
	blk := offset / DataBlockSize
	if _, ok := dc.auth[string(fh)][c.principal]; !ok {
		return nil, false, false
	}
	r := core.live(fh, time.Now())
	if r == nil {
		return nil, false, false
	}
	size := r.attr.Size
	if offset >= size {
		// Read at/past EOF: empty and EOF, no block required (an
		// empty file has none).
		return nil, true, true
	}
	b := dc.files[string(fh)][blk]
	if b == nil {
		return nil, false, false
	}
	start := blk * DataBlockSize
	have := uint64(len(b.data))
	if have < DataBlockSize && start+have < size {
		// Partial block the file has since outgrown — refetch.
		return nil, false, false
	}
	rel := offset - start
	if rel >= have {
		return nil, false, false
	}
	end := rel + uint64(count)
	if end > have {
		end = have
	}
	b.ref.Store(true)
	return b.data[rel:end], start+end >= size, true
}

// populate stores a READ reply in the cache and records the caller's
// proven access. Only block-aligned replies that either fill a block
// or end at EOF are cacheable (an empty one at EOF proves access and
// stores nothing: reads at or past the size are served without a
// block), and only while the file's attribute
// entry is live and no invalidation has raced the RPC (epoch check):
// a callback processed between issue and reply must win, or a stale
// block could be revived after forget dropped it. data must be safe
// to retain: with the gather path off XDR decoding copies reply bytes
// into fresh slices; with it on, data borrows the reply record, which
// ReadRecord allocated fresh for this one reply and nothing ever
// reuses — either way the cache alone references the bytes, and the
// invalEpoch guard above decides whether they may serve warm hits.
func (c *Client) populate(fh FH, offset uint64, data []byte, eof bool, epoch uint64) {
	core := c.core
	dc := core.dc
	if dc == nil || offset%DataBlockSize != 0 || len(data) > DataBlockSize {
		return
	}
	if len(data) < DataBlockSize && !eof {
		return
	}
	core.lock()
	defer core.mu.Unlock()
	if core.readEpoch() != epoch {
		return
	}
	if core.live(fh, time.Now()) == nil {
		return
	}
	dc.grantLocked(string(fh), c.principal)
	if len(data) > 0 {
		dc.insertLocked(string(fh), offset/DataBlockSize, data, &core.evictions)
	}
}

// noteWrite folds an acknowledged WRITE into the cache so re-reads of
// freshly written data never touch the wire. Single-block-aligned
// writes merge copy-on-write into the block; anything else, or any
// write racing an invalidation, just drops the overlapping blocks.
// owned says data belongs to the cache (already a private copy);
// otherwise the caller may reuse its buffer and the bytes are copied.
// The grant a write earns only exposes bytes the writer itself sent.
func (c *Client) noteWrite(fh FH, offset uint64, data []byte, epoch uint64, owned bool) {
	core := c.core
	dc := core.dc
	if dc == nil || len(data) == 0 {
		return
	}
	blk := offset / DataBlockSize
	endBlk := (offset + uint64(len(data)) - 1) / DataBlockSize
	core.lock()
	defer core.mu.Unlock()
	core.writeEpoch.Add(1) // in-flight READs may predate this write
	for b := blk; b <= endBlk && len(core.flights) > 0; b++ {
		// ... so a reader arriving from here on must not join one: it
		// starts a flight of its own, behind the write.
		delete(core.flights, flightKey(c.principal, fh, b))
	}
	if offset%DataBlockSize != 0 || blk != endBlk ||
		core.invalEpoch.Load() != epoch || core.live(fh, time.Now()) == nil {
		dc.dropRangeLocked(string(fh), offset, offset+uint64(len(data)))
		return
	}
	var nb []byte
	if old := dc.files[string(fh)][blk]; old != nil && len(old.data) > len(data) {
		// Overwriting the head of a longer block: keep its tail.
		nb = make([]byte, len(old.data))
		copy(nb, old.data)
		copy(nb, data)
	} else if owned {
		nb = data
	} else {
		nb = append(make([]byte, 0, len(data)), data...)
	}
	dc.grantLocked(string(fh), c.principal)
	dc.insertLocked(string(fh), blk, nb, &core.evictions)
}

// dropFileBlocks discards a file's cached blocks without touching its
// attributes — used for truncation (SETATTR with a size), where the
// attributes in the reply are fresh but the cached bytes are not. The
// epoch bump keeps an in-flight pre-truncate READ from repopulating.
func (core *clientCore) dropFileBlocks(fh FH) {
	if core.dc == nil {
		return
	}
	core.lock()
	core.invalEpoch.Add(1)
	core.dc.dropFileLocked(string(fh))
	core.mu.Unlock()
}
