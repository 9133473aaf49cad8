package vfs

// Checkpointing: bounding recovery by periodically handing the
// durable store a full snapshot of the node tree. The store writes it
// (plus its own extent index) as an atomic image and compacts the
// journal; the next boot loads the image and replays only the tail
// (DESIGN.md §15).
//
// The snapshot must correspond exactly to one journal LSN, so the
// image is written with the quiesce lock held exclusively: every
// mutator holds it shared for the span that journals the record and
// applies the tree change, so inside the lock the tree equals the
// journal prefix and nothing moves until the image is on disk. Reads
// are never blocked — they take node read locks only, and the snapshot
// walk takes the same, so lookups and READs proceed at full speed
// while a checkpoint streams out. Mutators are blocked only for that
// section: the store does the bulk of the I/O before the lock is taken
// and frees disk space after it is dropped.

import (
	"errors"
	"log"
	"sync"
	"time"

	"repro/internal/storage"
)

// Checkpoint snapshots the tree into the durable store's checkpoint
// image and compacts the journal. It returns the store's running
// checkpoint counters. On the in-memory default it returns
// storage.ErrVolatile and changes nothing.
func (fs *FS) Checkpoint() (storage.CheckpointStats, error) {
	fs.ckptMu.Lock()
	defer fs.ckptMu.Unlock()
	if err := fs.store.PrepareCheckpoint(); err != nil {
		return storage.CheckpointStats{}, err
	}
	fs.quiesce.Lock()
	_, err := fs.store.Checkpoint(fs.nextID.Load(), fs.nextCookie.Load(), fs.snapshotNodes)
	fs.quiesce.Unlock()
	st := fs.store.FinishCheckpoint()
	if err != nil {
		return storage.CheckpointStats{}, err
	}
	return st, nil
}

// snapshotNodes streams every live node to emit as a NodeRecord. The
// caller holds quiesce exclusively, so the tree cannot change; node
// read locks are still taken because readers may be updating nothing
// but the race detector does not know that, and shard maps are
// read-locked against concurrent lookups.
func (fs *FS) snapshotNodes(emit func(*storage.NodeRecord) error) error {
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.RLock()
		ns := make([]*node, 0, len(sh.nodes))
		for _, n := range sh.nodes {
			ns = append(ns, n)
		}
		sh.mu.RUnlock()
		for _, n := range ns {
			fs.rlockNode(n)
			if n.dead {
				n.mu.RUnlock()
				continue
			}
			nr := storage.NodeRecord{
				ID:     uint64(n.id),
				Type:   uint8(n.attr.Type),
				Mode:   n.attr.Mode,
				UID:    n.attr.UID,
				GID:    n.attr.GID,
				Nlink:  n.nlink,
				Size:   n.attr.Size,
				Atime:  n.attr.Atime.UnixNano(),
				Mtime:  n.attr.Mtime.UnixNano(),
				Ctime:  n.attr.Ctime.UnixNano(),
				Parent: uint64(n.parent),
				Target: n.target,
			}
			if n.children != nil {
				nr.Ents = make([]storage.DirEntRecord, 0, len(n.children))
				for name, ent := range n.children {
					nr.Ents = append(nr.Ents, storage.DirEntRecord{
						Name: name, ID: uint64(ent.id), Cookie: ent.cookie,
					})
				}
			}
			n.mu.RUnlock()
			if err := emit(&nr); err != nil {
				return err
			}
		}
	}
	return nil
}

// StartAutoCheckpoint launches the background checkpointer: it fires
// when the journal's live bytes reach walBytes (0 disables the size
// trigger) or when every has elapsed since the last checkpoint (0
// disables the timer). The returned stop function halts the loop and
// waits for any in-flight checkpoint to finish. On a store that
// cannot checkpoint the loop ends at its first attempt, silently.
func (fs *FS) StartAutoCheckpoint(walBytes uint64, every time.Duration) (stop func()) {
	if walBytes == 0 && every == 0 {
		return func() {}
	}
	poll := 250 * time.Millisecond
	if every > 0 && every/4 < poll {
		poll = max(every/4, 10*time.Millisecond)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(poll)
		defer tick.Stop()
		last := time.Now()
		var fails uint64
		var lastMsg string
		var lastWarn time.Time
		var lastGood storage.CheckpointStats
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if !(walBytes > 0 && fs.store.WALSizeBytes() >= walBytes) &&
				!(every > 0 && time.Since(last) >= every) {
				continue
			}
			// An error leaves the previous image and the full journal
			// intact; resetting the timer keeps a persistent failure
			// from hot-looping the disk. The store counts failures in
			// its checkpoint stats block; log here too (throttled) so a
			// journal growing without bound is never silent.
			if st, err := fs.Checkpoint(); errors.Is(err, storage.ErrVolatile) {
				return
			} else if err != nil {
				fails++
				if msg := err.Error(); msg != lastMsg || time.Since(lastWarn) >= time.Minute {
					lastMsg, lastWarn = msg, time.Now()
					log.Printf("vfs: auto-checkpoint failed (%d failures; last good one took %.1f ms, %.1f ms of it stalling writers): %v",
						fails, lastGood.DurationMS, lastGood.StallMS, err)
				}
			} else {
				fails, lastMsg, lastGood = 0, "", st
			}
			last = time.Now()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
