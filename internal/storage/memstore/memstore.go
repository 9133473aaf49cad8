// Package memstore is the default storage backend: the original
// in-memory content store extracted from internal/vfs behind the
// storage.Store contract. Metadata journaling is a no-op (the node
// tree is the only copy) and content lives in per-file byte slices.
// The store is volatile and cannot crash apart from its process, so
// stable and unstable writes are the same write, Commit has nothing
// to do, there is nothing to replay, and crash-restart and checkpoint
// return storage.ErrVolatile (DESIGN.md §11 "Crash model").
package memstore

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/stats"
	"repro/internal/storage"
)

const numShards = 64

type file struct {
	data []byte
}

type shard struct {
	mu    sync.RWMutex
	files map[uint64]*file
}

// Store implements storage.Store in memory. The shard locks guard
// only the id→file maps; per-file field access relies on the vfs
// contract that mutations of one id are serialized by the caller.
type Store struct {
	shards [numShards]shard
	epoch  uint64
}

// New returns an empty store under a random epoch, so two stores made
// back to back give their file systems different write verifiers.
func New() *Store {
	s := &Store{epoch: rand.Uint64()}
	for i := range s.shards {
		s.shards[i].files = make(map[uint64]*file)
	}
	return s
}

func (s *Store) shardOf(id uint64) *shard {
	return &s.shards[id&(numShards-1)]
}

// lookup returns the file for id, or nil.
func (s *Store) lookup(id uint64) *file {
	sh := s.shardOf(id)
	sh.mu.RLock()
	f := sh.files[id]
	sh.mu.RUnlock()
	return f
}

// fetch returns the file for id, creating it if needed.
func (s *Store) fetch(id uint64) *file {
	sh := s.shardOf(id)
	sh.mu.RLock()
	f := sh.files[id]
	sh.mu.RUnlock()
	if f != nil {
		return f
	}
	sh.mu.Lock()
	f = sh.files[id]
	if f == nil {
		f = &file{}
		sh.files[id] = f
	}
	sh.mu.Unlock()
	return f
}

// LogMeta is a no-op: the node tree is the in-memory store's only
// metadata copy.
func (s *Store) LogMeta(*storage.MetaRecord) error { return nil }

// Close is a no-op.
func (s *Store) Close() error { return nil }

// ReadAt copies content of id at off into p. The vfs guarantees the
// range lies within the file's size.
func (s *Store) ReadAt(id, off uint64, p []byte) error {
	if len(p) == 0 {
		return nil
	}
	f := s.lookup(id)
	if f == nil || off+uint64(len(p)) > uint64(len(f.data)) {
		return fmt.Errorf("memstore: read of id %d [%d,+%d) beyond stored extent", id, off, len(p))
	}
	copy(p, f.data[off:])
	return nil
}

// Write stores data at off, zero-filling any gap. There is no sync to
// wait for, so nothing is charged to the clock.
func (s *Store) Write(id, off uint64, data []byte, _ bool, _ int64, _ *stats.StageClock) error {
	f := s.fetch(id)
	end := off + uint64(len(data))
	if end > uint64(len(f.data)) {
		f.data = append(f.data, make([]byte, end-uint64(len(f.data)))...)
	}
	copy(f.data[off:end], data)
	return nil
}

// Truncate sets the size of id.
func (s *Store) Truncate(id, size uint64) error {
	f := s.fetch(id)
	if uint64(len(f.data)) > size {
		f.data = f.data[:size]
	} else {
		f.data = append(f.data, make([]byte, size-uint64(len(f.data)))...)
	}
	return nil
}

// Commit is a no-op: every write is already as stable as this store
// gets.
func (s *Store) Commit(uint64, *stats.StageClock) error { return nil }

// Remove drops all content of id.
func (s *Store) Remove(id uint64) error {
	sh := s.shardOf(id)
	sh.mu.Lock()
	delete(sh.files, id)
	sh.mu.Unlock()
	return nil
}

// Replay has nothing to replay: the store starts empty.
func (s *Store) Replay(func(storage.Record) error) (storage.ReplayStats, error) {
	return storage.ReplayStats{}, nil
}

// Epoch is the random epoch drawn in New.
func (s *Store) Epoch() uint64 { return s.epoch }

// CrashRestart returns storage.ErrVolatile: the store cannot crash
// apart from its process.
func (s *Store) CrashRestart() error { return storage.ErrVolatile }

// PrepareCheckpoint returns storage.ErrVolatile: there is no journal
// to bound.
func (s *Store) PrepareCheckpoint() error { return storage.ErrVolatile }

// Checkpoint returns storage.ErrVolatile.
func (s *Store) Checkpoint(uint64, uint64, func(func(*storage.NodeRecord) error) error) (storage.CheckpointStats, error) {
	return storage.CheckpointStats{}, storage.ErrVolatile
}

// FinishCheckpoint has nothing to release.
func (s *Store) FinishCheckpoint() storage.CheckpointStats { return storage.CheckpointStats{} }

// WALSizeBytes is 0: there is no journal.
func (s *Store) WALSizeBytes() uint64 { return 0 }

// Watermarks are 0, 0: no image persisted any.
func (s *Store) Watermarks() (nextID, nextCookie uint64) { return 0, 0 }

// StorageStats is nil, so memstore deployments keep their exact stats
// documents.
func (s *Store) StorageStats() *storage.Stats { return nil }
