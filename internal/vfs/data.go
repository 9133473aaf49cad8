package vfs

// The data path: Read, Write and Commit touch one node lock and the
// BlockStore; the write verifier is how a reboot (Restart, replay.go)
// is told to clients holding uncommitted data.

import (
	"repro/internal/stats"
	"repro/internal/storage"
)

// Read returns up to count bytes of file data starting at off, and
// whether the read reached end of file. The copy is made under the
// file's own read lock, so concurrent reads — of this file or any
// other — proceed in parallel.
//
// The returned slice is a fresh snapshot no one else references:
// store-level buffers mutate in place under writes (memstore WriteAt),
// so this snapshot — not the store's backing array — is the stable
// slice the wire path borrows into READ replies (DESIGN.md §12). This
// copy is the one unavoidable touch between disk state and the wire.
func (fs *FS) Read(cred Cred, id FileID, off uint64, count uint32) ([]byte, bool, error) {
	n, err := fs.getRLocked(id)
	if err != nil {
		return nil, false, err
	}
	if n.attr.Type == TypeDir {
		n.mu.RUnlock()
		return nil, false, ErrIsDir
	}
	if err := access(cred, n, ModeRead); err != nil {
		n.mu.RUnlock()
		return nil, false, err
	}
	size := n.attr.Size
	if off >= size {
		n.mu.RUnlock()
		return []byte{}, true, nil
	}
	end := off + uint64(count)
	if end > size {
		end = size
	}
	out := make([]byte, end-off)
	// The copy is made under the node's read lock, which is what
	// serializes it against writers per the storage contract.
	if err := fs.blocks.ReadAt(uint64(n.id), off, out); err != nil {
		n.mu.RUnlock()
		return nil, false, ioErr(err)
	}
	eof := end == size
	n.mu.RUnlock()
	return out, eof, nil
}

// Write stores data at off, extending the file as needed. If sync is
// set the write is stable: on storage before the call returns.
func (fs *FS) Write(cred Cred, id FileID, off uint64, data []byte, sync bool) (Attr, error) {
	return fs.WriteClocked(cred, id, off, data, sync, nil)
}

// WriteClocked is Write with a stage clock: on a durable store the
// group-commit wait of a stable write is charged to clk's fsync stage
// (storage.ClockedStore). A nil clk is exactly Write.
func (fs *FS) WriteClocked(cred Cred, id FileID, off uint64, data []byte, sync bool, clk *stats.StageClock) (Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	n, err := fs.getLocked(id)
	if err != nil {
		return Attr{}, err
	}
	if n.attr.Type == TypeDir {
		n.mu.Unlock()
		return Attr{}, ErrIsDir
	}
	if err := access(cred, n, ModeWrite); err != nil {
		n.mu.Unlock()
		return Attr{}, err
	}
	now := fs.clock()
	// The store decides what stability means: to the volatile memstore
	// every write is the same; diskstore journals the extent, returning
	// immediately for unstable writes and after the group-committed
	// fsync for stable ones.
	if cs, ok := fs.blocks.(storage.ClockedStore); ok && clk != nil {
		err = cs.WriteAtClocked(uint64(n.id), off, data, sync, now.UnixNano(), clk)
	} else {
		err = fs.blocks.WriteAt(uint64(n.id), off, data, sync, now.UnixNano())
	}
	if err != nil {
		n.mu.Unlock()
		return Attr{}, ioErr(err)
	}
	applyData(n, &storage.DataRecord{
		ID: uint64(n.id), Off: off, Len: uint32(len(data)), Stable: sync, Time: now.UnixNano(),
	})
	a := attrOf(n)
	n.mu.Unlock()
	return a, nil
}

// Commit flushes a file to stable storage (the NFS COMMIT operation).
// On a durable store this waits for one group-committed fsync.
func (fs *FS) Commit(id FileID) error {
	return fs.CommitClocked(id, nil)
}

// CommitClocked is Commit with the group-commit wait charged to clk's
// fsync stage. A nil clk is exactly Commit.
func (fs *FS) CommitClocked(id FileID, clk *stats.StageClock) error {
	n, err := fs.getLocked(id)
	if err != nil {
		return err
	}
	if cs, ok := fs.blocks.(storage.ClockedStore); ok && clk != nil {
		err = cs.CommitClocked(uint64(n.id), clk)
	} else {
		err = fs.blocks.Commit(uint64(n.id))
	}
	n.mu.Unlock()
	if err != nil {
		return ioErr(err)
	}
	return nil
}

// Verifier reports the write verifier of the current boot. NFS 3
// clients compare the verifiers carried by WRITE and COMMIT replies: a
// change means unstable data may have been discarded and must be
// retransmitted (RFC 1813 §4.8).
func (fs *FS) Verifier() uint64 { return fs.verf.Load() }
