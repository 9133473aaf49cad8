package diskstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// Checkpoint image file names inside the store directory. The image
// is written to CkptTmpName, fsynced, and atomically renamed over
// CkptName; the displaced previous image survives one generation as
// CkptPrevName so a torn or corrupt newest image falls back to the
// previous one plus a longer journal replay — never to data loss.
const (
	CkptName     = "checkpoint.ckpt"
	CkptTmpName  = "checkpoint.tmp"
	CkptPrevName = "checkpoint.prev"
)

// Image format:
//
//	header:  "SFSCKPT01" magic | epoch u64 | walSeq u64 |
//	         crc32(header) u32                          (29 bytes)
//	record:  len u32 | crc32(payload) u32 | payload
//
// Record payloads are the storage encoding for node records (kind 3),
// plus two image-only kinds:
//
//	extent:  kind=4 | id u64 | size u64 | count u32 |
//	         count × (bno u64 | slot u64)
//	trailer: kind=5 | nodes u64 | extents u64 | nextID u64 |
//	         nextCookie u64 | nextSlot u64
//
// The trailer must be the final record and its counts must match what
// preceded it; otherwise the image is invalid (torn mid-write) and
// the loader falls back. walSeq is the journal LSN the image covers:
// boot replays only records with seq > walSeq over it.
const (
	ckptMagic      = "SFSCKPT01"
	ckptHeaderSize = 29
	imgKindExtent  = 4
	imgKindTrailer = 5
	imgFrameSize   = 8
	maxImgRecord   = 256 << 20
)

type imgExtent struct {
	id, size    uint64
	bnos, slots []uint64
}

type image struct {
	walSeq     uint64
	nodes      []storage.NodeRecord
	extents    []imgExtent
	nextID     uint64
	nextCookie uint64
	nextSlot   uint64
	bytes      uint64 // file size of the image
}

// loadImage parses and fully validates one image file.
func loadImage(path string) (*image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return nil, fmt.Errorf("diskstore: checkpoint image %s is not a regular file", path)
	}
	img, err := readImage(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("diskstore: checkpoint image %s: %w", path, err)
	}
	return img, nil
}

// invalidImage is a validation failure: the image is torn or corrupt,
// as opposed to one that could not be read.
type invalidImage struct{ error }

// readImage parses and fully validates the image held in the first
// size bytes of r; a validation failure is an invalidImage. Its
// records are read through the journal's frame scanner, so memory
// beyond the decoded image is bounded by the largest record.
func readImage(r io.ReaderAt, size int64) (*image, error) {
	if size < ckptHeaderSize {
		return nil, invalidImage{errors.New("bad header")}
	}
	le := binary.LittleEndian
	var hdr [ckptHeaderSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:9]) != ckptMagic {
		return nil, invalidImage{errors.New("bad header")}
	}
	if crc32.ChecksumIEEE(hdr[:25]) != le.Uint32(hdr[25:]) {
		return nil, invalidImage{errors.New("header crc mismatch")}
	}
	img := &image{walSeq: le.Uint64(hdr[17:]), bytes: uint64(size)}
	sawTrailer := false
	var trNodes, trExtents uint64
	valid, torn, err := wal.ScanFrames(r, ckptHeaderSize, size-ckptHeaderSize, maxImgRecord, func(p []byte) error {
		if sawTrailer {
			return invalidImage{errors.New("bytes after trailer")}
		}
		switch p[0] {
		case imgKindExtent:
			if len(p) < 21 {
				return invalidImage{errors.New("short extent record")}
			}
			e := imgExtent{id: le.Uint64(p[1:]), size: le.Uint64(p[9:])}
			count := int(le.Uint32(p[17:]))
			if count != (len(p)-21)/16 || len(p) != 21+count*16 {
				return invalidImage{errors.New("extent record length mismatch")}
			}
			e.bnos = make([]uint64, count)
			e.slots = make([]uint64, count)
			for i := 0; i < count; i++ {
				e.bnos[i] = le.Uint64(p[21+i*16:])
				e.slots[i] = le.Uint64(p[29+i*16:])
			}
			img.extents = append(img.extents, e)
		case imgKindTrailer:
			if len(p) != 41 {
				return invalidImage{fmt.Errorf("bad trailer length %d", len(p))}
			}
			trNodes = le.Uint64(p[1:])
			trExtents = le.Uint64(p[9:])
			img.nextID = le.Uint64(p[17:])
			img.nextCookie = le.Uint64(p[25:])
			img.nextSlot = le.Uint64(p[33:])
			sawTrailer = true
		default:
			rec, _, err := storage.DecodeRecord(p)
			if err != nil || rec.Node == nil {
				return invalidImage{fmt.Errorf("unexpected record kind %d", p[0])}
			}
			img.nodes = append(img.nodes, *rec.Node)
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case torn:
		return nil, invalidImage{fmt.Errorf("torn record at %d", ckptHeaderSize+valid)}
	case !sawTrailer:
		return nil, invalidImage{errors.New("no trailer (torn image)")}
	case trNodes != uint64(len(img.nodes)) || trExtents != uint64(len(img.extents)):
		return nil, invalidImage{fmt.Errorf("trailer counts %d/%d != %d/%d", trNodes, trExtents, len(img.nodes), len(img.extents))}
	}
	return img, nil
}

// loadImageChain picks the newest valid image, falling back to the
// previous generation when the newest fails validation. An invalid
// image file is deleted so a later checkpoint's rename dance cannot
// demote it over the good one. Any other error — an image that exists
// but cannot be read — fails the open and leaves the file in place.
// Returns nil when no valid image exists (which is only fatal if the
// journal has been compacted — the caller checks coverage against the
// WAL chain base).
func loadImageChain(dir string) (*image, error) {
	for _, name := range []string{CkptName, CkptPrevName} {
		path := filepath.Join(dir, name)
		img, err := loadImage(path)
		switch {
		case err == nil:
			return img, nil
		case errors.As(err, new(invalidImage)):
			os.Remove(path)
		case !os.IsNotExist(err):
			return nil, err
		}
	}
	return nil, nil
}

// PrepareCheckpoint is the first checkpoint call: it fsyncs the
// extent file and syncs the journal, which the kernel's write-back and
// COMMITs already do at moments of their own choosing, so the durable
// state it leaves is one the store could have been in anyway and a
// crash anywhere in it recovers as a crash between checkpoints. What
// Checkpoint then finds left to do is what writers produced during the
// last pass, and the second pass is as short as the first one let
// writers run; a third would gain little, and none runs "until clean".
func (s *Store) PrepareCheckpoint() error {
	s.mu.Lock()
	w, pg := s.w, s.pg
	s.ckptStart = time.Now()
	s.mu.Unlock()
	var err error
	for pass := 0; pass < 2 && err == nil; pass++ {
		if err = pg.sync(); err == nil {
			err = w.Sync()
		}
	}
	if err == nil {
		err = s.abort("prepared")
	}
	if err != nil {
		s.countFailure()
	}
	return err
}

// Checkpoint is the quiesced checkpoint call: it writes a full image
// of the namespace (via snapshot) and the pager's extent index, lands
// it atomically, and compacts the journal by rotating the WAL. The
// caller holds the file system quiescent for the duration; concurrent
// reads are fine. On any error the previous images and the full
// journal are intact — a checkpoint either completes or changes
// nothing durable.
func (s *Store) Checkpoint(nextID, nextCookie uint64, snapshot func(emit func(*storage.NodeRecord) error) error) (storage.CheckpointStats, error) {
	st, err := s.checkpoint(nextID, nextCookie, snapshot)
	if err != nil {
		s.countFailure()
	}
	return st, err
}

// FinishCheckpoint is the last checkpoint call: it lets the file
// system free the displaced journal segment's blocks, and charges the
// time that takes to the checkpoint's duration.
func (s *Store) FinishCheckpoint() storage.CheckpointStats {
	w, _ := s.state()
	start := time.Now()
	w.Reclaim() //nolint:errcheck // read-only descriptor of a nameless file
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckpt.DurationMS += msSince(start)
	return s.ckpt
}

// countFailure surfaces stuck checkpointing: a growing failure count
// with a stale image count means the journal is no longer compacting.
func (s *Store) countFailure() {
	s.mu.Lock()
	s.ckpt.Failures++
	s.ckptStart = time.Time{}
	s.mu.Unlock()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func (s *Store) checkpoint(nextID, nextCookie uint64, snapshot func(emit func(*storage.NodeRecord) error) error) (storage.CheckpointStats, error) {
	s.mu.Lock()
	w, pg := s.w, s.pg
	s.mu.Unlock()
	start := time.Now()
	// Make the journal durable through the seq the image will claim to
	// cover: with buffered records still in user space, a crash between
	// the image rename and the rotation would otherwise publish an
	// image covering seqs the surviving WAL never reaches (the WAL open
	// path also rebases past such an image, as a second line of
	// defense against torn durable tails).
	if err := w.Sync(); err != nil {
		return storage.CheckpointStats{}, err
	}
	seq := w.Seq()

	tmpPath := filepath.Join(s.dir, CkptTmpName)
	f, err := os.Create(tmpPath)
	if err != nil {
		return storage.CheckpointStats{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	le := binary.LittleEndian
	hdr := make([]byte, ckptHeaderSize)
	copy(hdr, ckptMagic)
	le.PutUint64(hdr[9:], w.Epoch())
	le.PutUint64(hdr[17:], seq)
	le.PutUint32(hdr[25:], crc32.ChecksumIEEE(hdr[:25]))
	if _, err := bw.Write(hdr); err != nil {
		f.Close()
		return storage.CheckpointStats{}, err
	}
	frame := func(payload []byte) error {
		var fr [imgFrameSize]byte
		le.PutUint32(fr[:], uint32(len(payload)))
		le.PutUint32(fr[4:], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(fr[:]); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}

	live := make(map[uint64]struct{})
	var nodes uint64
	var buf []byte
	grow := func(n int) []byte {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		return buf[:n]
	}
	err = snapshot(func(nr *storage.NodeRecord) error {
		live[nr.ID] = struct{}{}
		b := grow(storage.NodeLen(nr))
		storage.PutNode(b, nr)
		nodes++
		return frame(b)
	})
	if err != nil {
		f.Close()
		return storage.CheckpointStats{}, err
	}

	files, err := pg.checkpointImage(live, func(id, size uint64, bnos, slots []uint64) error {
		b := grow(21 + len(bnos)*16)
		b[0] = imgKindExtent
		le.PutUint64(b[1:], id)
		le.PutUint64(b[9:], size)
		le.PutUint32(b[17:], uint32(len(bnos)))
		for i := range bnos {
			le.PutUint64(b[21+i*16:], bnos[i])
			le.PutUint64(b[29+i*16:], slots[i])
		}
		return frame(b)
	})
	if err != nil {
		f.Close()
		return storage.CheckpointStats{}, err
	}

	var tr [41]byte
	tr[0] = imgKindTrailer
	le.PutUint64(tr[1:], nodes)
	le.PutUint64(tr[9:], files)
	le.PutUint64(tr[17:], nextID)
	le.PutUint64(tr[25:], nextCookie)
	le.PutUint64(tr[33:], pg.nextSlot())
	if err := frame(tr[:]); err != nil {
		f.Close()
		return storage.CheckpointStats{}, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return storage.CheckpointStats{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return storage.CheckpointStats{}, err
	}
	imgBytes := uint64(0)
	if st, err := f.Stat(); err == nil {
		imgBytes = uint64(st.Size())
	}
	if err := f.Close(); err != nil {
		return storage.CheckpointStats{}, err
	}
	if err := s.abort("image"); err != nil {
		return storage.CheckpointStats{}, err
	}

	ckptPath := filepath.Join(s.dir, CkptName)
	prevPath := filepath.Join(s.dir, CkptPrevName)
	if _, err := os.Stat(ckptPath); err == nil {
		if err := os.Rename(ckptPath, prevPath); err != nil {
			return storage.CheckpointStats{}, err
		}
		if err := s.abort("rename-prev"); err != nil {
			return storage.CheckpointStats{}, err
		}
	}
	if err := os.Rename(tmpPath, ckptPath); err != nil {
		return storage.CheckpointStats{}, err
	}
	if err := wal.SyncDir(s.dir); err != nil {
		return storage.CheckpointStats{}, err
	}
	if err := s.abort("renamed"); err != nil {
		return storage.CheckpointStats{}, err
	}

	truncated, err := w.Rotate()
	if err != nil {
		return storage.CheckpointStats{}, err
	}
	pg.promoteFreed()

	s.mu.Lock()
	s.ckpt.Count++
	s.ckpt.Bytes = imgBytes
	s.ckpt.StallMS = msSince(start)
	if !s.ckptStart.IsZero() {
		start = s.ckptStart // prepare ran: the checkpoint began there
		s.ckptStart = time.Time{}
	}
	s.ckpt.DurationMS = msSince(start)
	s.ckpt.WALTruncatedBytes += truncated
	out := s.ckpt
	s.mu.Unlock()
	return out, nil
}

// abort runs the test-only crash hook for one checkpoint stage.
func (s *Store) abort(stage string) error {
	if s.testAbort != nil {
		return s.testAbort(stage)
	}
	return nil
}
