// Package diskstore implements storage.MetadataStore and
// storage.BlockStore on disk: every mutation appends a record to a
// group-commit write-ahead log (storage/wal), a paged serving copy
// (pager.go) keeps hot content blocks in memory under a byte budget
// and cold extents in an on-disk extent file, and periodic checkpoint
// images (checkpoint.go) bound recovery to the journal tail.
//
// Durability follows the NFS 3 stability model the vfs exposes:
// unstable WriteAt appends asynchronously (user-space buffer, spilled
// to the OS past a threshold), Commit and stable writes wait for one
// group-committed fsync, and LogMeta — namespace mutations — is
// synchronous like FFS metadata updates. The journal is the
// durability authority; the extent file is just the cold tier of the
// serving copy, made authoritative only at checkpoint time (flushed,
// fsynced, and indexed by the image before the journal is compacted).
//
// Boot = load the newest valid checkpoint image + replay only journal
// records past its LSN. A torn or corrupt image falls back to the
// previous generation and a longer replay; only corruption of both an
// image and the journal segment covering it loses data, and that
// reports a clean error, never a panic.
//
// CrashRestart is the kill -9 model: buffered records are torn off,
// the log reopens with a bumped epoch, and the store rebuilds its
// serving copy from image + surviving tail. The vfs then calls Replay
// to rebuild the node tree and derives a fresh write verifier from
// the epoch, which is exactly what lets acknowledged COMMITs survive
// the crash while clients retransmit the unstable tail.
package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// LogName is the journal file created inside the store directory.
const LogName = "wal.log"

// Options tunes a disk store.
type Options struct {
	// HotBytes is the pager's residency budget for content blocks
	// (0 selects DefaultHotBytes). The dataset may exceed it; cold
	// extents page in from the extent file on demand.
	HotBytes uint64
}

// Store is a durable store over a WAL chain, a checkpoint image pair,
// and an extent file. All methods are safe for concurrent use under
// the vfs contract (per-id mutations serialized by the caller).
type Store struct {
	dir  string
	opts Options

	// mu guards the swappable state below across CrashRestart. Ops
	// snapshot the pointers under mu and then run lock-free against
	// them; an op that loses the race to a crash writes to the old
	// (closed) WAL and reports an error, or mutates an orphaned
	// serving copy — the same "lost at the crash" outcome a real
	// kill -9 gives, and the verifier change makes clients retransmit.
	mu      sync.Mutex
	w       *wal.WAL
	pg      *pager
	pending []pendingRec
	scan    time.Duration // recovery scan + serving-copy rebuild time
	replay  storage.ReplayStats
	imgSeq  uint64 // journal seq covered by the image loaded at open

	nextID     uint64 // id/cookie watermarks from the image trailer
	nextCookie uint64

	ckpt      storage.CheckpointStats // running checkpoint counters
	ckptStart time.Time               // when the checkpoint in progress began; zero between checkpoints

	// testAbort, when set, is called at each checkpoint stage
	// ("prepared", "image", "rename-prev", "renamed") and aborts the
	// checkpoint mid-protocol when it returns an error — the unit-test
	// analogue of kill -9 at that instant.
	testAbort func(stage string) error
}

// pendingRec is one decoded image or journal record awaiting the
// vfs's Replay pass (tree rebuild). Data payloads were already
// applied to the serving copy during open.
type pendingRec struct {
	rec storage.Record
}

// Open opens (or creates) the store rooted at dir, loading the newest
// valid checkpoint image and scanning the journal tail past it. The
// caller must follow with a storage.Replayer Replay pass
// (vfs.NewWithStores does) to rebuild the namespace.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// open loads the image chain and scans the WAL tail into a fresh
// serving copy and pending record list. Callers hold s.mu or are the
// constructor.
func (s *Store) open() error {
	start := time.Now()
	if s.pg != nil {
		s.pg.close()
		s.pg = nil
	}
	os.Remove(filepath.Join(s.dir, CkptTmpName)) // stale mid-checkpoint temp

	img := loadImageChain(s.dir)
	pg, err := newPager(filepath.Join(s.dir, ExtentsName), s.opts.HotBytes)
	if err != nil {
		return err
	}
	var pending []pendingRec
	var imgSeq, imgRecords, imgBytes uint64
	if img != nil {
		imgSeq = img.walSeq
		imgBytes = img.bytes
		imgRecords = uint64(len(img.nodes)) + uint64(len(img.extents))
		pg.setNextSlot(img.nextSlot)
		for i := range img.extents {
			e := &img.extents[i]
			pg.install(e.id, e.size, e.bnos, e.slots)
		}
		pending = make([]pendingRec, len(img.nodes))
		for i := range img.nodes {
			pending[i] = pendingRec{rec: storage.Record{Node: &img.nodes[i]}}
		}
		s.nextID, s.nextCookie = img.nextID, img.nextCookie
		// Seed the running checkpoint counters so a reopened store's
		// stats still report that it boots from an image. Count restarts
		// at 1 per boot (per-process counter, like WAL append counts).
		s.ckpt = storage.CheckpointStats{Count: 1, Bytes: imgBytes}
	} else {
		s.ckpt = storage.CheckpointStats{}
		// No image: whatever the extent file holds belongs to a
		// previous life of this directory. Reset it; the journal
		// rebuilds everything.
		if err := pg.f.Truncate(0); err != nil {
			pg.close()
			return err
		}
		s.nextID, s.nextCookie = 0, 0
	}
	imgNanos := uint64(time.Since(start).Nanoseconds())

	walStart := time.Now()
	var tailRecords uint64
	w, err := wal.Open(filepath.Join(s.dir, LogName),
		wal.Options{SkipBelow: imgSeq},
		func(seq uint64, payload []byte) error {
			if seq <= imgSeq {
				return nil // covered by the image
			}
			rec, data, err := storage.DecodeRecord(payload)
			if err != nil {
				return err
			}
			// Rebuild the serving copy here, in journal order. The
			// namespace (applied later by the vfs) never reorders
			// against content for one id, because the vfs emits both
			// under the same node lock. Records for since-removed ids
			// leave orphaned content — harmless, ids are never reused,
			// the vfs only reads within live files' sizes, and the
			// next checkpoint garbage-collects them.
			if d := rec.Data; d != nil {
				if err := pg.WriteAt(d.ID, d.Off, data); err != nil {
					return err
				}
			} else if m := rec.Meta; m != nil && m.Op == storage.OpSetAttr && m.SetMask&storage.SetSize != 0 {
				if err := pg.Truncate(m.ID, m.Size); err != nil {
					return err
				}
			}
			tailRecords++
			pending = append(pending, pendingRec{rec: rec})
			return nil
		})
	if err != nil {
		pg.close()
		return err
	}
	// Coverage check: the journal has been compacted up to ChainBase;
	// the image must reach at least that far or there is a hole no
	// replay can fill (double corruption — image and its covering
	// segment). Refuse cleanly rather than serve a gap.
	if base := w.ChainBase(); base > imgSeq {
		w.Close()
		pg.close()
		return fmt.Errorf("diskstore: journal compacted to seq %d but checkpoint image covers only seq %d", base, imgSeq)
	}
	info := w.ReplayInfo()
	rs := storage.ReplayStats{
		CheckpointRecords: imgRecords,
		CheckpointBytes:   imgBytes,
		CheckpointNanos:   imgNanos,
		TailRecords:       tailRecords,
		TailBytes:         info.Bytes,
		TailNanos:         uint64(time.Since(walStart).Nanoseconds()),
	}
	rs.Records = rs.CheckpointRecords + rs.TailRecords
	rs.Bytes = rs.CheckpointBytes + rs.TailBytes
	rs.NanoSec = uint64(time.Since(start).Nanoseconds())
	s.w, s.pg, s.pending = w, pg, pending
	s.replay = rs
	s.imgSeq = imgSeq
	s.scan = time.Since(start)
	return nil
}

// state snapshots the swappable store state.
func (s *Store) state() (*wal.WAL, *pager) {
	s.mu.Lock()
	w, pg := s.w, s.pg
	s.mu.Unlock()
	return w, pg
}

// Replay implements storage.Replayer: it streams the image's node
// records and then the journal-tail records scanned at open through
// apply so the vfs can rebuild its node tree, then drops them.
// Serving-copy content was already rebuilt during open; apply must
// not call back into the store.
func (s *Store) Replay(apply func(storage.Record) error) (storage.ReplayStats, error) {
	s.mu.Lock()
	pending, rs := s.pending, s.replay
	s.pending = nil
	s.mu.Unlock()
	for _, p := range pending {
		if err := apply(p.rec); err != nil {
			return storage.ReplayStats{}, err
		}
	}
	return rs, nil
}

// Watermarks implements storage.Watermarker: the id/cookie allocation
// watermarks persisted in the checkpoint trailer (zero when booting
// without an image).
func (s *Store) Watermarks() (nextID, nextCookie uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID, s.nextCookie
}

// WALSizeBytes implements storage.Checkpointer's trigger gauge: bytes
// appended to the live journal segment since the last checkpoint.
func (s *Store) WALSizeBytes() uint64 {
	w, _ := s.state()
	return w.LiveBytes()
}

// LogMeta journals one namespace/attribute mutation and waits for it
// to reach stable storage (one group-committed fsync) — metadata
// updates are synchronous, as on the paper's FFS server.
func (s *Store) LogMeta(rec *storage.MetaRecord) error {
	w, _ := s.state()
	if err := w.Append(storage.MetaLen(rec), func(dst []byte) {
		storage.PutMeta(dst, rec)
	}); err != nil {
		return err
	}
	return w.Sync()
}

// ReadAt serves reads from the paged serving copy, faulting cold
// extents in from the extent file as needed.
func (s *Store) ReadAt(id, off uint64, p []byte) error {
	_, pg := s.state()
	return pg.ReadAt(id, off, p)
}

// WriteAt applies the write to the serving copy and appends a journal
// record. Unstable writes return once buffered (the WRITE(unstable)
// fast path); stable writes additionally wait for the group commit.
func (s *Store) WriteAt(id, off uint64, data []byte, stable bool, t int64) error {
	return s.WriteAtClocked(id, off, data, stable, t, nil)
}

// WriteAtClocked implements storage.ClockedStore: WriteAt with the
// group-commit wait of a stable write charged to clk's fsync stage.
func (s *Store) WriteAtClocked(id, off uint64, data []byte, stable bool, t int64, clk *stats.StageClock) error {
	w, pg := s.state()
	// The serving copy keeps no last-stable image: recovery rebuilds it
	// from image + journal, so that image is whatever the surviving
	// prefix says.
	if err := pg.WriteAt(id, off, data); err != nil {
		return err
	}
	rec := storage.DataRecord{ID: id, Off: off, Len: uint32(len(data)), Stable: stable, Time: t}
	if err := w.Append(storage.DataLen(len(data)), func(dst []byte) {
		storage.PutData(dst, &rec, data)
	}); err != nil {
		return err
	}
	if stable {
		return w.SyncClocked(clk)
	}
	return nil
}

// Truncate resizes the serving copy only: the durable record is the
// OpSetAttr MetaRecord the vfs journals for the same operation, so
// logging here would double-record it.
func (s *Store) Truncate(id, size uint64) error {
	_, pg := s.state()
	return pg.Truncate(id, size)
}

// Commit waits for every prior write of any file to reach stable
// storage — the group-commit point backing NFS COMMIT.
func (s *Store) Commit(uint64) error {
	w, _ := s.state()
	return w.Sync()
}

// CommitClocked implements storage.ClockedStore: Commit with the
// group-commit wait charged to clk's fsync stage.
func (s *Store) CommitClocked(_ uint64, clk *stats.StageClock) error {
	w, _ := s.state()
	return w.SyncClocked(clk)
}

// Remove drops serving-copy content; durability rides on the vfs's
// OpRemove/OpRename MetaRecord. The extent slots go on the deferred
// free list so retained images stay valid.
func (s *Store) Remove(id uint64) error {
	_, pg := s.state()
	return pg.Remove(id)
}

// Epoch implements storage.Epocher.
func (s *Store) Epoch() uint64 {
	w, _ := s.state()
	return w.Epoch()
}

// CrashRestart implements storage.CrashRestarter: kill -9 the log
// (dropping user-space buffered records, keeping what reached the
// OS), then reopen and rebuild the serving copy from image + tail.
// The caller follows with Replay to rebuild the namespace.
func (s *Store) CrashRestart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Crash(); err != nil {
		return err
	}
	return s.open()
}

// Close flushes and syncs the journal and closes the store. Resident
// dirty blocks need no writeback: the journal already holds them and
// the next open replays the tail.
func (s *Store) Close() error {
	s.mu.Lock()
	w, pg := s.w, s.pg
	s.mu.Unlock()
	err := w.Close()
	if cerr := pg.close(); err == nil {
		err = cerr
	}
	return err
}

// StorageStats implements storage.StatsReporter.
func (s *Store) StorageStats() *storage.Stats {
	s.mu.Lock()
	w, pg, rs, ck := s.w, s.pg, s.replay, s.ckpt
	s.mu.Unlock()
	ws := w.StatsSnapshot()
	ck.LoadMBps = rs.CheckpointMBps()
	ck.TailMBps = rs.TailMBps()
	return &storage.Stats{
		Kind:          "disk",
		Epoch:         ws.Epoch,
		WALAppends:    ws.Appends,
		WALBytes:      ws.AppendBytes,
		Flushes:       ws.Flushes,
		Fsyncs:        ws.Fsyncs,
		BatchRecords:  ws.Batch,
		ReplayRecords: rs.Records,
		ReplayBytes:   rs.Bytes,
		ReplayMBps:    rs.MBps(),
		WALFailures:   ws.Failures,
		Checkpoint:    &ck,
		Pager:         pg.stats(),
	}
}
