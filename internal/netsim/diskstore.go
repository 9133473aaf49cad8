package netsim

import (
	"sync/atomic"

	"repro/internal/storage"
)

// DiskStore puts the era disk under a file system. It wraps the store
// pair a vfs.FS is built over (vfs.NewWithStores(s, s)) and charges the
// Disk for every store call that moved the 1999 disk's arm or media:
// a media read per ReadAt, a media write per WriteAt plus a
// synchronous update when the write is stable, and a synchronous
// update per Commit, per Truncate, and per journaled namespace
// mutation: FFS writes namespace changes through synchronously and
// bare attribute changes (OpSetAttr) lazily, so those cost nothing
// here. The inner store is called first and a failed call charges
// nothing.
//
// The vfs calls its stores under the locks that serialized the
// operation, so the charge is part of the operation's critical
// section, as the disk arm was. Only the two base interfaces are
// forwarded: wrap a volatile store (memstore); a durable store's
// replay, epoch and checkpoint interfaces would be hidden, and it pays
// for its own fsyncs anyway.
type DiskStore struct {
	meta   storage.MetadataStore
	blocks storage.BlockStore
	disk   *Disk

	reads, writes, bytes                     atomic.Uint64
	metaSyncs, truncSyncs, stable, committed atomic.Uint64
}

// NewDiskStore wraps the pair with d's costs.
func NewDiskStore(meta storage.MetadataStore, blocks storage.BlockStore, d *Disk) *DiskStore {
	return &DiskStore{meta: meta, blocks: blocks, disk: d}
}

// DiskCharges counts what a DiskStore has charged, synchronous
// updates by the store call that caused them.
type DiskCharges struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Bytes  uint64 `json:"bytes"` // across reads and writes

	MetaSyncs        uint64 `json:"meta_syncs"`         // LogMeta, every op but OpSetAttr
	TruncateSyncs    uint64 `json:"truncate_syncs"`     // Truncate: SETATTR size and CREATE over an existing file
	StableWriteSyncs uint64 `json:"stable_write_syncs"` // WriteAt with stable set
	CommitSyncs      uint64 `json:"commit_syncs"`       // Commit
}

// Charges snapshots the counters.
func (s *DiskStore) Charges() DiskCharges {
	return DiskCharges{
		Reads: s.reads.Load(), Writes: s.writes.Load(), Bytes: s.bytes.Load(),
		MetaSyncs: s.metaSyncs.Load(), TruncateSyncs: s.truncSyncs.Load(),
		StableWriteSyncs: s.stable.Load(), CommitSyncs: s.committed.Load(),
	}
}

func (s *DiskStore) sync(cause *atomic.Uint64) {
	cause.Add(1)
	s.disk.Sync()
}

// LogMeta journals rec, then charges a synchronous update unless rec
// is an attribute change.
func (s *DiskStore) LogMeta(rec *storage.MetaRecord) error {
	if err := s.meta.LogMeta(rec); err != nil {
		return err
	}
	if rec.Op != storage.OpSetAttr {
		s.sync(&s.metaSyncs)
	}
	return nil
}

// Close closes the metadata store (the block half of a pair is the
// same object, or has nothing to close).
func (s *DiskStore) Close() error { return s.meta.Close() }

// ReadAt reads, then charges a media read of len(p) bytes.
func (s *DiskStore) ReadAt(id, off uint64, p []byte) error {
	if err := s.blocks.ReadAt(id, off, p); err != nil {
		return err
	}
	s.reads.Add(1)
	s.bytes.Add(uint64(len(p)))
	s.disk.Read(len(p))
	return nil
}

// WriteAt writes, then charges a media write of len(data) bytes and,
// for a stable write, a synchronous update.
func (s *DiskStore) WriteAt(id, off uint64, data []byte, stable bool, t int64) error {
	if err := s.blocks.WriteAt(id, off, data, stable, t); err != nil {
		return err
	}
	s.writes.Add(1)
	s.bytes.Add(uint64(len(data)))
	s.disk.Write(len(data))
	if stable {
		s.sync(&s.stable)
	}
	return nil
}

// Truncate truncates, then charges a synchronous update.
func (s *DiskStore) Truncate(id, size uint64) error {
	if err := s.blocks.Truncate(id, size); err != nil {
		return err
	}
	s.sync(&s.truncSyncs)
	return nil
}

// Commit commits, then charges a synchronous update.
func (s *DiskStore) Commit(id uint64) error {
	if err := s.blocks.Commit(id); err != nil {
		return err
	}
	s.sync(&s.committed)
	return nil
}

// Remove frees id's content. The unlink's synchronous update is the
// OpRemove record's.
func (s *DiskStore) Remove(id uint64) error { return s.blocks.Remove(id) }
