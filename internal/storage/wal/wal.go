// Package wal implements the write-ahead log under storage/diskstore:
// an append-only record log with group commit, kept short by segment
// rotation at checkpoints.
//
// # Format
//
//	header:  "SFSWAL02" magic | epoch u64 | baseSeq u64 |
//	         crc32(header) u32 | pad u32                  (32 bytes)
//	record:  len u32 | crc32(payload) u32 | payload
//
// All integers are little-endian. Records carry no explicit sequence
// number: the i-th record of a segment (0-based) has seq
// baseSeq + i + 1, so the frame stays 8 bytes and the append path
// allocation-free. The header CRC exists so a corrupted baseSeq is
// detected rather than silently renumbering every record — a bad
// header demotes the whole segment, never shifts replay.
//
// The epoch counts opens: every Open reads the stored epoch,
// increments it, and fsyncs the header before serving appends, so a
// reopened log is distinguishable from the boot that crashed — the
// vfs derives the NFS write verifier from it.
//
// # Rotation
//
// Rotate seals the current segment (flush + fsync) and makes a fresh
// one live, based where the sealed one's records end. The fresh
// segment is created and headered under path+".next"; then the sealed
// segment is renamed over path+".prev" (displacing the previous .prev)
// and the fresh one into the live path. A failure at any step either
// completes the rotation or leaves the current segment untouched — no
// window leaves acknowledged records in a file the next boot cannot
// find. The checkpointer calls Rotate right after an image lands: the
// new image covers everything in .prev, and .prev is retained one
// generation so a torn image can fall back to the previous image plus
// a longer replay. The chain therefore never holds more than two
// segments. Rotate keeps a descriptor open on the segment it
// displaced, so the rename only drops its name; the file system frees
// its blocks when Reclaim closes the descriptor, which the
// checkpointer does after writers are running again. Rotate bases the
// fresh segment at its flushed watermark; Open runs the same sequence,
// based at the caller's image seq, to finish a rotation a crash cut
// short (see Recovery).
//
// # Recovery
//
// Open reads both segment headers, then walks the chain [.prev,
// current] oldest first, calling replay with each intact record's seq.
// A segment replays only if its header is good and its base continues
// where the segment before it ended; the walk stops at the first bad
// header, gap or torn tail, and cuts a torn tail off its file, leaving
// a shorter but valid prefix for the caller to layer over its image.
// Corruption never panics. Options.SkipBelow — the seq already covered
// by the caller's checkpoint image — lets the walk skip .prev unread
// when the current segment's base shows the image covers all of it;
// .prev then stays on disk for image fallback. A .prev whose header is
// bad is deleted.
//
// The walk then places the current segment one of three ways. If it
// replayed and the image does not reach past its end, appends continue
// after its last record. If it did not replay (empty, bad header, or
// past a gap or torn tail), it is emptied and rebased at the end of
// what replayed, or at SkipBelow if that is higher. If it replayed but
// SkipBelow is past its end — a crash published a checkpoint image but
// lost the buffered or torn records it covered before the rotation ran
// — Open completes that rotation: it seals the segment into .prev
// through the same failure-atomic sequence as Rotate (via .next), and
// bases the fresh segment at SkipBelow, so fresh appends never reuse
// seqs the image already covers (the caller's replay filter would
// silently drop such records at the next boot, losing acknowledged
// writes). The epoch is one past the newest good header's; a log with
// no good header starts at 1 if it is new and draws its epoch at
// random otherwise, so no earlier boot's epoch is issued again.
//
// # Group commit
//
// Append buffers records in user space and returns immediately — the
// WRITE(unstable) path. Sync is the COMMIT path: the first caller in
// becomes the leader, writes the buffered batch, and issues one
// fsync; callers that arrive while the leader is flushing wait and
// then find their records already durable. The records-per-fsync
// histogram is the direct measure of how well commits batch.
//
// The leader holds syncMu for the whole write + fsync but flushMu only
// for the write: an appender that crosses the auto-flush mark while an
// fsync is in flight spills its batch behind it and returns, and the
// leader advances the durable watermark only to what it had written
// before its fsync began. Lock order: syncMu, then flushMu, then mu.
//
// # Failure
//
// The log is fail-stop. Records are numbered by position, so a batch
// that failed to reach the file cannot be skipped, and after a failed
// fsync the kernel may have dropped the dirty pages, so a later fsync
// proves nothing. The first write or fsync error is therefore kept:
// every later Append, Flush, Sync and Rotate returns it, and the
// durable watermark stays where the last good fsync left it. Reopening
// the log (which truncates whatever tail the failure tore) is the way
// out.
//
// The append hot path is allocation-free at steady state: callers
// reserve space with Append(size, fill) and encode in place, and the
// two append buffers are recycled across flushes.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

const (
	magic      = "SFSWAL02"
	headerSize = 32
	frameSize  = 8 // len u32 + crc u32

	// maxRecord bounds a single record so a corrupt length field
	// cannot drive a huge allocation during recovery.
	maxRecord = 64 << 20

	// scanBuffer is the read-ahead of a recovery scan: frames are
	// parsed out of it, so a scan reads the segment in pieces of this
	// size rather than whole or one frame at a time.
	scanBuffer = 64 << 10
)

// DefaultAutoFlush is the buffered-byte threshold past which Append
// spills the buffer to the OS (write, no fsync). Spilled records
// survive kill -9 but not power loss; only Sync promises stability.
const DefaultAutoFlush = 256 << 10

// ErrClosed is returned by operations on a closed (or crashed) log.
var ErrClosed = errors.New("wal: log closed")

// Options tunes a WAL.
type Options struct {
	// SkipBelow is the record seq already covered by the caller's
	// checkpoint image. Open still reports every scanned record to
	// replay (the caller filters by seq), but uses SkipBelow to
	// avoid reading the .prev segment at all when the current
	// segment's base shows it is fully covered, and to rebase an
	// emptied log so fresh appends stay above the image.
	SkipBelow uint64
}

// ReplayInfo summarizes the recovery scan done by Open.
type ReplayInfo struct {
	Records   uint64 // intact records scanned (pre-filter)
	Bytes     uint64 // record bytes scanned (frames + payloads)
	Truncated bool   // a torn tail or corrupt segment was cut
}

// WAL is an append-only record log with group commit. All methods are
// safe for concurrent use.
type WAL struct {
	skipBelow uint64
	path      string
	prevPath  string

	// mu guards the append state: buf accumulates encoded records,
	// seq counts records ever appended (absolute, chain-wide), base
	// is the current segment's first seq minus one, and chainBase is
	// the oldest segment's base — the seq below which the log holds
	// no records.
	mu        sync.Mutex
	buf       []byte
	seq       uint64
	base      uint64
	chainBase uint64
	closed    bool
	failed    error // first write or fsync error; sticky

	// syncMu is the group-commit leader lock: its holder is the one
	// goroutine fsyncing, rotating, crashing or closing the log.
	// flushMu serializes write(2) and the buffer swap and guards
	// spare and written. f changes only with all three locks held, so
	// holding any one of them is enough to use it.
	// Lock order: syncMu, flushMu, mu.
	syncMu  sync.Mutex
	flushMu sync.Mutex
	f       *os.File
	spare   []byte
	written uint64 // records handed to the OS

	synced atomic.Uint64 // records known durable
	live   atomic.Uint64 // record bytes in the current segment

	// displaced is the segment the last Rotate pushed out of the .prev
	// slot: already nameless, its blocks freed when Reclaim closes it.
	displaced atomic.Pointer[os.File]

	epoch  uint64
	replay ReplayInfo

	appends     stats.Counter
	appendBytes stats.Counter
	flushes     stats.Counter
	fsyncs      stats.Counter
	rotations   stats.Counter
	failures    stats.Counter
	batch       stats.Histogram
}

// Open opens or creates the log chain at path (the current segment;
// path+".prev" is the sealed one), replays intact records oldest
// first through replay, truncates any torn tail, and bumps the epoch.
// replay must not keep payload past its return: the scan reads every
// record into one buffer, so the next record overwrites it. A replay
// error aborts the open: the log is corrupt in a way recovery cannot
// repair.
func Open(path string, opts Options, replay func(seq uint64, payload []byte) error) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, err
	}
	w := &WAL{
		f:         f,
		skipBelow: opts.SkipBelow,
		path:      path,
		prevPath:  path + ".prev",
	}
	if err := w.recover(replay); err != nil {
		w.f.Close() // recover may have swapped in a fresh segment file
		return nil, err
	}
	w.written = w.seq
	w.synced.Store(w.seq)
	return w, nil
}

// segInfo describes one scanned segment file.
type segInfo struct {
	hdrOK   bool
	epoch   uint64
	base    uint64
	records uint64
	bytes   uint64 // record bytes in the valid prefix
	torn    bool   // valid prefix ends before EOF
}

func (s segInfo) end() uint64 { return s.base + s.records }

func parseHeader(hdr []byte) (epoch, base uint64, ok bool) {
	le := binary.LittleEndian
	if string(hdr[:8]) != magic || crc32.ChecksumIEEE(hdr[:24]) != le.Uint32(hdr[24:]) {
		return 0, 0, false
	}
	return le.Uint64(hdr[8:]), le.Uint64(hdr[16:]), true
}

// ScanFrames reads the frames — len u32 | crc32(payload) u32 |
// payload, the framing of journal segments and checkpoint images alike
// — held in bytes [off, off+size) of r, calling fn with each intact
// payload in order. It stops at the end or at the first torn or
// corrupt frame (cut short, of length 0 or above limit, or failing its
// CRC) and returns the length of the intact prefix and whether a torn
// frame ended it; only read errors and fn's errors abort. It holds the
// read-ahead buffer and one payload buffer, reused for every frame and
// grown to the largest, so its memory is bounded by limit whatever
// size is, and fn must not keep payload past its return.
func ScanFrames(r io.ReaderAt, off, size, limit int64, fn func(payload []byte) error) (valid int64, torn bool, err error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, off, size), int(min(size, scanBuffer)))
	var frame [frameSize]byte
	var buf []byte
	for valid < size {
		if valid+frameSize > size {
			return valid, true, nil
		}
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return valid, false, err
		}
		n := int64(binary.LittleEndian.Uint32(frame[:]))
		if n == 0 || n > limit || valid+frameSize+n > size {
			return valid, true, nil
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return valid, false, err
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:]) {
			return valid, true, nil
		}
		if err := fn(payload); err != nil {
			return valid, false, err
		}
		valid += frameSize + n
	}
	return valid, false, nil
}

// scanSegment parses the segment held in the first size bytes of f:
// header, then records until EOF or the first torn/corrupt frame.
// Corruption is reported in the result, not as an error; only I/O
// failures and replay errors abort.
func scanSegment(f io.ReaderAt, size int64, replay func(uint64, []byte) error) (segInfo, error) {
	var seg segInfo
	if size < headerSize {
		return seg, nil
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return seg, err
	}
	if seg.epoch, seg.base, seg.hdrOK = parseHeader(hdr[:]); !seg.hdrOK {
		return seg, nil
	}
	valid, torn, err := ScanFrames(f, headerSize, size-headerSize, maxRecord, func(payload []byte) error {
		seq := seg.base + seg.records + 1
		if replay != nil {
			if err := replay(seq, payload); err != nil {
				return fmt.Errorf("wal: replay record %d: %w", seq, err)
			}
		}
		seg.records++
		return nil
	})
	seg.bytes, seg.torn = uint64(valid), torn
	return seg, err
}

// chainSeg is one segment file of the chain as recovery finds it.
type chainSeg struct {
	f    *os.File // nil: no such segment
	size int64
	segInfo
}

// openSeg reads the header of segment f: a scan of its first
// headerSize bytes, which hold no records.
func openSeg(f *os.File) (chainSeg, error) {
	st, err := f.Stat()
	if err != nil {
		return chainSeg{}, err
	}
	s := chainSeg{f: f, size: st.Size()}
	s.segInfo, err = scanSegment(f, min(s.size, headerSize), nil)
	return s, err
}

// take replays segment s, cuts a torn tail off its file, and adds it
// to the replay summary.
func (w *WAL) take(s *chainSeg, replay func(uint64, []byte) error) error {
	seg, err := scanSegment(s.f, s.size, replay)
	if err != nil {
		return err
	}
	s.segInfo = seg
	w.replay.Records += seg.records
	w.replay.Bytes += seg.bytes
	if !seg.torn {
		return nil
	}
	w.replay.Truncated = true
	if err := s.f.Truncate(headerSize + int64(seg.bytes)); err != nil {
		return err
	}
	return s.f.Sync()
}

// recover walks the chain as the package doc's "Recovery" describes
// and leaves w ready to append to the current segment.
func (w *WAL) recover(replay func(uint64, []byte) error) error {
	os.Remove(w.path + ".next") // stale temp from an interrupted Rotate
	cur, err := openSeg(w.f)
	if err != nil {
		return err
	}
	var prev chainSeg
	if f, err := os.OpenFile(w.prevPath, os.O_RDWR, 0); err == nil {
		defer f.Close()
		if prev, err = openSeg(f); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	switch {
	case cur.hdrOK:
		w.epoch = cur.epoch + 1
	case prev.hdrOK:
		w.epoch = prev.epoch + 1
	case cur.size == 0 && prev.f == nil && w.skipBelow == 0:
		w.epoch = 1 // a new log
	default:
		// Earlier boots, but no header counts them: draw the epoch, as
		// the memory store does, from the upper half of the space, which
		// no counted epoch reaches, so no earlier boot's epoch (and
		// write verifier) is issued again.
		w.epoch = rand.Uint64() | 1<<63
	}

	// Walk .prev, then the current segment unless a bad header, gap or
	// torn tail stopped the walk before it. .prev is skipped when the
	// caller's image covers every record in it.
	var end uint64 // seq of the last record replayed
	skipPrev := cur.hdrOK && w.skipBelow >= cur.base
	replayCur := cur.hdrOK
	switch {
	case prev.f == nil, prev.hdrOK && skipPrev: // none, or kept unread for image fallback
	case !prev.hdrOK:
		os.Remove(w.prevPath)
		w.replay.Truncated = !skipPrev
		replayCur = skipPrev
	default:
		if err := w.take(&prev, replay); err != nil {
			return err
		}
		end = prev.end()
		replayCur = replayCur && !prev.torn && cur.base == end
	}
	if replayCur {
		if err := w.take(&cur, replay); err != nil {
			return err
		}
		w.base, w.seq = cur.base, cur.end()
	} else {
		// Empty it and rebase: its records, if any, lie past a bad
		// header, gap or torn tail.
		w.replay.Truncated = w.replay.Truncated || cur.size > 0
		w.base = max(end, w.skipBelow)
		w.seq = w.base
		if err := w.f.Truncate(0); err != nil {
			return err
		}
	}
	w.chainBase = w.base
	if prev.hdrOK {
		w.chainBase = prev.base
	}
	if w.skipBelow > w.seq {
		// The image covers seqs this segment lost: seal it and rebase.
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.seq = w.skipBelow
		_, err := w.rotateTo(w.skipBelow)
		w.Reclaim() //nolint:errcheck // read-only descriptor of a nameless file
		return err
	}
	w.live.Store(cur.bytes)
	if err := w.writeHeader(); err != nil {
		return err
	}
	_, err = w.f.Seek(headerSize+int64(cur.bytes), io.SeekStart)
	return err
}

// writeHeaderTo persists a segment header (epoch, base) to f and
// fsyncs it. The file offset is untouched.
func writeHeaderTo(f *os.File, epoch, base uint64) error {
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	binary.LittleEndian.PutUint64(hdr[16:], base)
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(hdr[:24]))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return f.Sync()
}

// writeHeader persists the current epoch and base and leaves the
// offset at the start of the record area (callers reposition as
// needed).
func (w *WAL) writeHeader() error {
	if err := writeHeaderTo(w.f, w.epoch, w.base); err != nil {
		return err
	}
	w.fsyncs.Inc()
	if _, err := w.f.Seek(headerSize, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// Epoch returns the boot epoch assigned by Open.
func (w *WAL) Epoch() uint64 { return w.epoch }

// ReplayInfo returns the recovery summary from Open.
func (w *WAL) ReplayInfo() ReplayInfo { return w.replay }

// Seq returns the seq of the last record appended.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// ChainBase returns the seq below which the chain holds no records:
// the oldest segment's base. A caller whose checkpoint image does not
// reach ChainBase has a hole it cannot replay over.
func (w *WAL) ChainBase() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chainBase
}

// LiveBytes returns the record bytes in the current segment — the log
// growth since the last rotation, which is what checkpoint triggers
// measure.
func (w *WAL) LiveBytes() uint64 { return w.live.Load() }

// Rotate seals the current segment (flushing and fsyncing everything
// appended so far), renames it over the .prev slot — displacing the
// previous .prev, whose size it returns as the bytes compacted away —
// and starts a fresh segment continuing the seq chain. Callers rotate
// immediately after a checkpoint image lands: the image covers the
// sealed segment, and the sealed segment covers back to the previous
// image for fallback. The displaced segment loses its name here but
// keeps its blocks until Reclaim.
//
// Rotation is failure-atomic: the fresh segment is created and
// headered under a .next temp name before the live path is renamed
// away, so any error leaves the WAL un-rotated but fully usable —
// w.f always matches the live path, and no acknowledged record ever
// lands in a file recovery cannot find.
func (w *WAL) Rotate() (freed uint64, err error) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	upto, err := w.flushLocked()
	if err != nil {
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		return 0, w.fail(err)
	}
	w.fsyncs.Inc()
	w.synced.Store(upto)
	// Base the fresh segment at the flushed watermark, not w.seq:
	// records appended (buffered) since the flush have seqs above upto
	// and will spill into the fresh segment, where recovery numbers
	// them from its base.
	return w.rotateTo(upto)
}

// rotateTo is the second half of a rotation, run once the current
// segment is durable: it seals that segment into .prev and makes a
// fresh segment based at base live. Rotate and recovery both rotate
// through it, so the recovery's rotation counts in Stats.Rotations.
func (w *WAL) rotateTo(base uint64) (freed uint64, err error) {
	nextPath := w.path + ".next"
	os.Remove(nextPath)
	nf, err := os.OpenFile(nextPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return 0, err
	}
	var displaced *os.File
	abort := func(e error) (uint64, error) {
		nf.Close()
		os.Remove(nextPath)
		if displaced != nil {
			displaced.Close()
		}
		return 0, e
	}
	// Opened before the rename takes its name away: unlinking a large
	// segment is slow, and this moves that cost to Reclaim.
	if displaced, err = os.Open(w.prevPath); err != nil && !os.IsNotExist(err) {
		return abort(err)
	}
	if err := writeHeaderTo(nf, w.epoch, base); err != nil {
		return abort(err)
	}
	w.fsyncs.Inc()
	if displaced != nil {
		if st, err := displaced.Stat(); err == nil {
			freed = uint64(st.Size())
		}
	}
	if err := os.Rename(w.path, w.prevPath); err != nil {
		return abort(err)
	}
	if err := os.Rename(nextPath, w.path); err != nil {
		// Undo the first rename so the live fd keeps matching the live
		// path; the WAL stays un-rotated but consistent.
		os.Rename(w.prevPath, w.path)
		return abort(err)
	}
	w.mu.Lock()
	old := w.f
	w.f = nf
	w.chainBase = w.base
	w.base = base
	w.mu.Unlock()
	old.Close()
	if unclaimed := w.displaced.Swap(displaced); unclaimed != nil {
		unclaimed.Close()
	}
	w.rotations.Inc()
	if _, err := nf.Seek(headerSize, io.SeekStart); err != nil {
		return 0, err
	}
	w.live.Store(0)
	return freed, SyncDir(filepath.Dir(w.path))
}

// Reclaim closes the descriptor Rotate kept on the segment it
// displaced, which is what frees that segment's blocks. It takes no
// lock appenders or syncers wait on.
func (w *WAL) Reclaim() error {
	if d := w.displaced.Swap(nil); d != nil {
		return d.Close()
	}
	return nil
}

// SyncDir fsyncs directory dir, making the creations, renames and
// unlinks done in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// stateErr reports why the log accepts no more work — closed, or
// fail-stopped on an earlier write or fsync error — and counts the
// call it is about to refuse for the second reason. Caller holds mu.
func (w *WAL) stateErr() error {
	if w.closed {
		return ErrClosed
	}
	if w.failed != nil {
		w.failures.Inc()
	}
	return w.failed
}

// fail makes err the log's sticky error unless an earlier one already
// is, and returns the sticky one.
func (w *WAL) fail(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == nil {
		w.failed = fmt.Errorf("wal: log failed, reopen to recover: %w", err)
	}
	w.failures.Inc()
	return w.failed
}

// Append reserves size bytes for one record and calls fill to encode
// the payload in place. The record buffers in user space (crossing
// the auto-flush threshold spills it to the OS); it is durable only
// after a Sync whose return it precedes.
func (w *WAL) Append(size int, fill func(dst []byte)) error {
	if size <= 0 || size > maxRecord {
		return fmt.Errorf("wal: record size %d out of range", size)
	}
	w.mu.Lock()
	if err := w.stateErr(); err != nil {
		w.mu.Unlock()
		return err
	}
	off := len(w.buf)
	need := off + frameSize + size
	if cap(w.buf) < need {
		grown := make([]byte, off, max(need, 2*cap(w.buf)))
		copy(grown, w.buf)
		w.buf = grown
	}
	w.buf = w.buf[:need]
	payload := w.buf[off+frameSize : need]
	fill(payload)
	binary.LittleEndian.PutUint32(w.buf[off:], uint32(size))
	binary.LittleEndian.PutUint32(w.buf[off+4:], crc32.ChecksumIEEE(payload))
	w.seq++
	buffered := len(w.buf)
	w.mu.Unlock()
	w.appends.Inc()
	w.appendBytes.Add(uint64(frameSize + size))
	w.live.Add(uint64(frameSize + size))
	if buffered >= DefaultAutoFlush {
		return w.Flush()
	}
	return nil
}

// Flush hands buffered records to the OS without forcing them to
// media: they survive a kill -9 of this process but not power loss.
func (w *WAL) Flush() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	_, err := w.flushLocked()
	return err
}

// flushLocked writes the append buffer to the file. Caller holds
// flushMu. Returns the record watermark now handed to the OS.
func (w *WAL) flushLocked() (uint64, error) {
	w.mu.Lock()
	if err := w.stateErr(); err != nil {
		w.mu.Unlock()
		return w.written, err
	}
	buf, upto := w.buf, w.seq
	if len(buf) == 0 {
		w.mu.Unlock()
		return upto, nil
	}
	w.buf = w.spare[:0]
	w.mu.Unlock()
	_, err := w.f.Write(buf)
	w.spare = buf[:0]
	if err != nil {
		// The batch is gone and part of it may be in the file; nothing
		// may be written after it.
		return w.written, w.fail(err)
	}
	w.flushes.Inc()
	w.written = upto
	return upto, nil
}

// SyncClocked is Sync with the whole wait — leader work or follower
// blocking alike — charged to clk's fsync stage. From the request's
// point of view the distinction does not matter: this is the time the
// RPC spent waiting for the group commit covering its records.
func (w *WAL) SyncClocked(clk *stats.StageClock) error {
	t0 := clk.Now()
	err := w.Sync()
	clk.End(stats.StageFsync, t0)
	return err
}

// Sync makes every record appended before the call durable — the
// group-commit point. Concurrent callers share fsyncs: the leader
// flushes and syncs once for everyone who arrived in time.
func (w *WAL) Sync() error {
	w.mu.Lock()
	target := w.seq
	err := w.stateErr()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	for w.synced.Load() < target {
		w.syncMu.Lock()
		if w.synced.Load() >= target {
			// A leader's fsync covered us while we waited.
			w.syncMu.Unlock()
			return nil
		}
		err := w.syncLocked()
		w.syncMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// syncLocked is the leader's work: write the batch, fsync, and advance
// the durable watermark to what the write covered. Appenders keep
// spilling during the fsync; their records are not claimed durable
// until the next one. Caller holds syncMu.
func (w *WAL) syncLocked() error {
	start := w.synced.Load()
	w.flushMu.Lock()
	upto, err := w.flushLocked()
	w.flushMu.Unlock()
	if err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.fsyncs.Inc()
	w.batch.Observe(upto - start)
	w.synced.Store(upto)
	return nil
}

// Crash simulates kill -9: records still buffered in user space are
// lost, and the file closes without a final flush or sync. Records
// already handed to the OS survive — the page cache outlives the
// process — exactly as with a real SIGKILL.
func (w *WAL) Crash() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.buf = nil
	w.closed = true
	w.mu.Unlock()
	w.Reclaim() //nolint:errcheck // read-only descriptor of a nameless file
	return w.f.Close()
}

// Close flushes, syncs, and closes the log.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	closed, unsynced := w.closed, w.synced.Load() < w.seq
	w.mu.Unlock()
	if closed {
		return nil
	}
	var err error
	if unsynced {
		err = w.syncLocked()
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.Reclaim() //nolint:errcheck // read-only descriptor of a nameless file
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is a snapshot of the log's counters.
type Stats struct {
	Epoch       uint64
	Appends     uint64
	AppendBytes uint64
	Flushes     uint64
	Fsyncs      uint64
	Rotations   uint64
	// Failures counts calls that hit or were refused by the sticky
	// write/fsync error; nonzero means the log is fail-stopped.
	Failures uint64
	Batch    stats.HistSnapshot
}

// StatsSnapshot captures the counters.
func (w *WAL) StatsSnapshot() Stats {
	return Stats{
		Epoch:       w.epoch,
		Appends:     w.appends.Load(),
		AppendBytes: w.appendBytes.Load(),
		Flushes:     w.flushes.Load(),
		Fsyncs:      w.fsyncs.Load(),
		Rotations:   w.rotations.Load(),
		Failures:    w.failures.Load(),
		Batch:       w.batch.Snapshot(),
	}
}
