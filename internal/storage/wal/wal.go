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
// Rotate seals the current segment (flush + fsync), renames it over
// path+".prev" (displacing the previous .prev), and starts a fresh
// segment whose baseSeq continues the chain. The fresh segment is
// created and headered under path+".next" before the live path is
// renamed away, so a failure at any step either completes the
// rotation or leaves the current segment untouched — there is no
// window where acknowledged records live in a file the next boot
// cannot find. The checkpointer calls Rotate right after an image
// lands: the new image covers everything in .prev, and .prev is
// retained one generation so a torn image can fall back to the
// previous image plus a longer replay. The chain therefore never
// holds more than two segments. Rotate keeps a descriptor open on the
// segment it displaced, so the rename only drops its name; the file
// system frees its blocks when Reclaim closes the descriptor, which
// the checkpointer does after writers are running again.
//
// # Recovery
//
// Open scans .prev (oldest first) then the current segment, calling
// replay with each intact record's seq, and truncates the first torn
// or corrupt tail it finds. Options.SkipBelow — the seq already
// covered by the caller's checkpoint image — lets Open skip reading
// .prev entirely when the current segment's baseSeq shows .prev is
// fully covered. Corruption never panics: a segment with a bad header
// is dropped (and any later segment with it, since replaying across a
// sequence gap would corrupt state), leaving a shorter but valid
// prefix for the caller to layer over its image.
//
// If SkipBelow ends up above the chain's surviving tail — a crash
// published a checkpoint image but lost the buffered or torn records
// it covered before the rotation ran — Open completes that rotation:
// it seals the scanned segment into the .prev slot and starts a fresh
// segment based at SkipBelow, so fresh appends never reuse seqs the
// image already covers (the caller's replay filter would silently
// drop such records at the next boot, losing acknowledged writes).
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

const (
	magic      = "SFSWAL02"
	headerSize = 32
	frameSize  = 8 // len u32 + crc u32

	// maxRecord bounds a single record so a corrupt length field
	// cannot drive a huge allocation during recovery.
	maxRecord = 64 << 20
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
	Records   uint64        // intact records scanned (pre-filter)
	Bytes     uint64        // record bytes scanned (frames + payloads)
	Truncated bool          // a torn tail or corrupt segment was cut
	Elapsed   time.Duration // scan wall time
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
// first through replay (payload slices are only valid during the
// call), truncates any torn tail, and bumps the epoch. A replay error
// aborts the open: the log is corrupt in a way recovery cannot
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

// scanSegment parses one segment: header, then records until EOF or
// the first torn/corrupt frame. Corruption is reported in the result,
// not as an error; only I/O failures and replay errors abort.
func scanSegment(f *os.File, replay func(uint64, []byte) error) (segInfo, error) {
	var seg segInfo
	st, err := f.Stat()
	if err != nil {
		return seg, err
	}
	if st.Size() < headerSize {
		return seg, nil
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return seg, err
	}
	if seg.epoch, seg.base, seg.hdrOK = parseHeader(hdr[:]); !seg.hdrOK {
		return seg, nil
	}
	rest := make([]byte, st.Size()-headerSize)
	if _, err := f.ReadAt(rest, headerSize); err != nil {
		return seg, err
	}
	off := 0
	for off < len(rest) {
		if off+frameSize > len(rest) {
			seg.torn = true
			break
		}
		n := int(binary.LittleEndian.Uint32(rest[off:]))
		crc := binary.LittleEndian.Uint32(rest[off+4:])
		if n <= 0 || n > maxRecord || off+frameSize+n > len(rest) {
			seg.torn = true
			break
		}
		payload := rest[off+frameSize : off+frameSize+n]
		if crc32.ChecksumIEEE(payload) != crc {
			seg.torn = true
			break
		}
		if replay != nil {
			if err := replay(seg.base+seg.records+1, payload); err != nil {
				return seg, fmt.Errorf("wal: replay record %d: %w", seg.base+seg.records+1, err)
			}
		}
		seg.records++
		off += frameSize + n
	}
	seg.bytes = uint64(off)
	return seg, nil
}

// truncSeg cuts a segment file at the end of its valid prefix.
func truncSeg(f *os.File, seg segInfo) error {
	if err := f.Truncate(headerSize + int64(seg.bytes)); err != nil {
		return err
	}
	return f.Sync()
}

// finish seals the recovery bookkeeping once epoch/base/chainBase are
// decided: seq watermarks, live-byte gauge, and scan counters.
func (w *WAL) finish(start time.Time, liveBytes uint64) {
	w.seq = max(w.base, w.seq)
	w.written = w.seq
	w.synced.Store(w.seq)
	w.live.Store(liveBytes)
	w.replay.Elapsed = time.Since(start)
}

func (w *WAL) recover(replay func(uint64, []byte) error) error {
	start := time.Now()
	os.Remove(w.path + ".next") // stale temp from an interrupted Rotate
	st, err := w.f.Stat()
	if err != nil {
		return err
	}
	prevF, prevErr := os.OpenFile(w.prevPath, os.O_RDWR, 0)
	if prevErr != nil && !os.IsNotExist(prevErr) {
		return prevErr
	}
	prevExists := prevErr == nil
	if prevExists {
		defer prevF.Close()
	}

	// Fresh log (or one whose files vanished under a live image):
	// start the chain at the image's seq so new records stay above it.
	if st.Size() == 0 && !prevExists {
		w.epoch = 1
		w.base, w.chainBase = w.skipBelow, w.skipBelow
		w.finish(start, 0)
		return w.writeHeader()
	}

	// An empty current segment next to a surviving .prev is a crash
	// between the rotation renames and the first header write:
	// complete the rotation by scanning .prev and re-heading the
	// current segment where it ends.
	if st.Size() == 0 {
		seg, err := scanSegment(prevF, replay)
		if err != nil {
			return err
		}
		if !seg.hdrOK {
			os.Remove(w.prevPath)
			w.epoch = 1
			w.base, w.chainBase = w.skipBelow, w.skipBelow
			w.replay.Truncated = true
		} else {
			if seg.torn {
				if err := truncSeg(prevF, seg); err != nil {
					return err
				}
				w.replay.Truncated = true
			}
			w.epoch = seg.epoch + 1
			w.base = max(seg.end(), w.skipBelow)
			w.chainBase = seg.base
			w.replay.Records = seg.records
			w.replay.Bytes = seg.bytes
		}
		w.finish(start, 0)
		return w.writeHeader()
	}

	var hdr [headerSize]byte
	var curEpoch, curBase uint64
	curHdrOK := false
	if st.Size() >= headerSize {
		if _, err := w.f.ReadAt(hdr[:], 0); err != nil {
			return err
		}
		curEpoch, curBase, curHdrOK = parseHeader(hdr[:])
	}

	// Unreadable current header: fall back to .prev alone, or — with
	// no usable segment at all — restart the chain at the image seq.
	// Either way the surviving records form a valid prefix.
	if !curHdrOK {
		w.replay.Truncated = true
		if prevExists {
			seg, err := scanSegment(prevF, replay)
			if err != nil {
				return err
			}
			if seg.hdrOK {
				if seg.torn {
					if err := truncSeg(prevF, seg); err != nil {
						return err
					}
				}
				w.epoch = seg.epoch + 1
				w.base = max(seg.end(), w.skipBelow)
				w.chainBase = seg.base
				w.replay.Records = seg.records
				w.replay.Bytes = seg.bytes
				w.finish(start, 0)
				return w.resetCur()
			}
			os.Remove(w.prevPath)
		}
		w.epoch = 1
		w.base, w.chainBase = w.skipBelow, w.skipBelow
		w.finish(start, 0)
		return w.resetCur()
	}

	w.epoch = curEpoch + 1
	dropCur := false
	if prevExists {
		if w.skipBelow >= curBase {
			// The image covers every record in .prev: keep it for
			// image fallback but skip reading it.
			var phdr [headerSize]byte
			if _, err := prevF.ReadAt(phdr[:], 0); err == nil {
				if _, pbase, ok := parseHeader(phdr[:]); ok {
					w.chainBase = pbase
				} else {
					os.Remove(w.prevPath)
					w.chainBase = curBase
				}
			} else {
				os.Remove(w.prevPath)
				w.chainBase = curBase
			}
		} else {
			seg, err := scanSegment(prevF, replay)
			if err != nil {
				return err
			}
			switch {
			case !seg.hdrOK:
				// .prev is gone as a record source; the current
				// segment starts past a seq gap and cannot be
				// applied either.
				os.Remove(w.prevPath)
				dropCur = true
				w.base, w.chainBase = w.skipBelow, w.skipBelow
			case seg.torn || seg.end() != curBase:
				// .prev lost its tail (or never met the current
				// segment's base): keep its valid prefix, drop the
				// current records past the gap.
				if seg.torn {
					if err := truncSeg(prevF, seg); err != nil {
						return err
					}
				}
				dropCur = true
				w.base = max(seg.end(), w.skipBelow)
				w.chainBase = seg.base
				w.replay.Records += seg.records
				w.replay.Bytes += seg.bytes
			default:
				w.chainBase = seg.base
				w.replay.Records += seg.records
				w.replay.Bytes += seg.bytes
			}
		}
	} else {
		w.chainBase = curBase
	}
	if dropCur {
		w.replay.Truncated = true
		w.finish(start, 0)
		return w.resetCur()
	}

	w.base = curBase
	seg, err := scanSegment(w.f, replay)
	if err != nil {
		return err
	}
	if seg.torn {
		if err := w.f.Truncate(headerSize + int64(seg.bytes)); err != nil {
			return err
		}
		w.replay.Truncated = true
	}
	w.replay.Records += seg.records
	w.replay.Bytes += seg.bytes
	w.seq = seg.end()

	// The image covers seqs past this segment's durable end: a crash
	// lost the buffered (or torn-off) tail records after the checkpoint
	// image landed but before the WAL rotated. Complete that rotation —
	// seal the scanned segment into the .prev slot and start a fresh
	// segment based at the image's seq — so fresh appends land above
	// the image's coverage instead of reusing seqs the next boot's
	// replay filter would silently discard. The sealed segment keeps
	// the chain's fallback discipline: previous image + .prev replay
	// still reconstructs the pre-crash durable prefix.
	if w.skipBelow > seg.end() {
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := os.Remove(w.prevPath); err != nil && !os.IsNotExist(err) {
			return err
		}
		if err := os.Rename(w.path, w.prevPath); err != nil {
			return err
		}
		nf, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if err != nil {
			return err
		}
		w.f.Close()
		w.f = nf
		w.chainBase = curBase
		w.base = w.skipBelow
		w.finish(start, 0)
		if err := w.writeHeader(); err != nil {
			return err
		}
		return SyncDir(filepath.Dir(w.path))
	}

	w.finish(start, seg.bytes)
	if err := w.writeHeader(); err != nil {
		return err
	}
	_, err = w.f.Seek(headerSize+int64(seg.bytes), io.SeekStart)
	return err
}

// resetCur empties the current segment and rewrites its header with
// the (possibly rebased) epoch and base.
func (w *WAL) resetCur() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	return w.writeHeader()
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
	// Base the fresh segment at the flushed watermark, not w.seq:
	// records appended (buffered) since the flush have seqs above upto
	// and will spill into the fresh segment, where recovery numbers
	// them from its base.
	if err := writeHeaderTo(nf, w.epoch, upto); err != nil {
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
	w.base = upto
	w.mu.Unlock()
	old.Close()
	if unclaimed := w.displaced.Swap(displaced); unclaimed != nil {
		unclaimed.Close()
	}
	if _, err := nf.Seek(headerSize, io.SeekStart); err != nil {
		return 0, err
	}
	w.live.Store(0)
	w.rotations.Inc()
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
