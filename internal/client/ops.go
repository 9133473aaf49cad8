package client

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/nfs"
)

// File is an open file: a handle plus the authenticated view it was
// opened through. It supports streaming reads and writes at a cursor,
// and it is the one place bytes are pipelined: sequential reads run
// through a read-ahead window of READ futures, and writes through a
// write-behind window of unstable WRITEs committed in one
// verifier-checked batch by Sync. All methods are safe for concurrent
// use.
type File struct {
	node *node

	mu sync.Mutex
	// size is the file size as this File knows it: the attributes it
	// was opened with, raised by its own writes. Read-ahead never
	// speculates at or past it.
	size   uint64
	off    uint64
	ra     readahead
	wb     writebehind
	wrote  bool // any write issued; Close then commits
	closed bool
}

// readahead is the sequential-read pipeline of one open file: a window
// of outstanding READ futures at consecutive offsets, guarded by the
// File's mutex.
type readahead struct {
	chunk   uint32 // read size the window was built with
	head    uint64 // offset the next popped future was issued at
	issued  uint64 // next offset to issue
	lastEnd uint64 // where the previous read stopped (sequential detector)
	window  []func() ([]byte, bool, error)
}

// drain finishes every outstanding future, discarding results. Futures
// must not be abandoned: each holds a reply slot on the channel.
func (ra *readahead) drain() {
	for _, fin := range ra.window {
		fin() //nolint:errcheck // discarding speculative replies
	}
	ra.window = ra.window[:0]
}

// wireChunk is the transfer size of the write pipeline: the 8 KB the
// paper's large-file benchmark moves per WRITE.
const wireChunk = 8192

// maxCommitRetries bounds the retransmit-and-recommit loop when the
// server keeps rebooting under one Sync.
const maxCommitRetries = 5

// chunkPool recycles write-behind chunk buffers. A chunk lives from
// the WriteAt that copies caller bytes into it until the COMMIT that
// proves those bytes stable (retransmission after a server reboot
// needs the data), then returns here.
var chunkPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, wireChunk)
	return &b
}}

func getChunk() []byte  { return (*chunkPool.Get().(*[]byte))[:0] }
func putChunk(b []byte) { chunkPool.Put(&b) }

// wbWrite is one issued, not yet acknowledged unstable WRITE.
type wbWrite struct {
	fin func() (uint32, uint64, error)
	off uint64
	buf []byte
}

// wbRange is acknowledged unstable data awaiting a verified COMMIT.
type wbRange struct {
	off uint64
	buf []byte
}

// writebehind is the asynchronous write pipeline of one open file:
// caller bytes are copied into pooled wire-sized chunks, issued as
// unstable WRITE futures (at most windowDepth outstanding), and
// retained on the dirty list until a COMMIT whose verifier matches
// the WRITE replies proves them stable (RFC 1813 §4.8). Guarded by
// the File's mutex.
type writebehind struct {
	buf      []byte    // coalescing buffer, cap wireChunk; nil when unused
	bufOff   uint64    // file offset of buf[0]
	window   []wbWrite // issued, reply not yet awaited — oldest first
	dirty    []wbRange // acknowledged unstable, awaiting verified COMMIT
	verf     uint64    // verifier of the most recent WRITE reply
	verfOK   bool
	mismatch bool  // WRITE replies disagreed: server restarted mid-stream
	err      error // deferred failure for the next WriteAt/Sync/Close
}

func (wb *writebehind) fail(err error) {
	if wb.err == nil {
		wb.err = err
	}
}

// takeErr reports and clears the deferred error.
func (wb *writebehind) takeErr() error {
	err := wb.err
	wb.err = nil
	return err
}

// active reports whether unflushed writes exist that a read or sync
// must push to the server first.
func (wb *writebehind) active() bool {
	return len(wb.buf) > 0 || len(wb.window) > 0
}

// issueChunk sends the coalescing buffer as one unstable WRITE future.
// Only transport-level failures are returned; a server-side rejection
// surfaces later, when the future is retired.
func (f *File) issueChunk() error {
	buf := f.wb.buf
	if len(buf) == 0 {
		return nil
	}
	off := f.wb.bufOff
	f.wb.buf = nil
	// Never two outstanding WRITEs over the same byte range: the
	// server dispatches concurrently and could apply them in either
	// order.
	for _, w := range f.wb.window {
		if off < w.off+uint64(len(w.buf)) && w.off < off+uint64(len(buf)) {
			f.retireAll()
			break
		}
	}
	for len(f.wb.window) >= windowDepth {
		f.retireOldest()
	}
	fin, err := f.node.view.WriteStart(f.node.fh, off, buf, nfs.Unstable)
	if err != nil {
		putChunk(buf)
		return err
	}
	f.wb.window = append(f.wb.window, wbWrite{fin: fin, off: off, buf: buf})
	ios := f.stats()
	ios.wbChunks.Inc()
	ios.wbBytes.Add(uint64(len(buf)))
	ios.wbWindowOcc.Observe(uint64(len(f.wb.window)))
	return nil
}

// retireOldest awaits the oldest outstanding WRITE. A successful chunk
// moves to the dirty list; a failure is latched for the next caller.
func (f *File) retireOldest() {
	w := f.wb.window[0]
	f.wb.window = f.wb.window[1:]
	n, verf, err := w.fin()
	if err == nil && int(n) < len(w.buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		putChunk(w.buf)
		f.wb.fail(err)
		return
	}
	if f.wb.verfOK && verf != f.wb.verf {
		f.wb.mismatch = true
	}
	f.wb.verf, f.wb.verfOK = verf, true
	f.wb.dirty = append(f.wb.dirty, wbRange{off: w.off, buf: w.buf})
}

func (f *File) retireAll() {
	for len(f.wb.window) > 0 {
		f.retireOldest()
	}
}

// flush pushes every buffered and in-flight write to the server and
// waits for the replies, without committing.
func (f *File) flush() error {
	if err := f.issueChunk(); err != nil {
		return err
	}
	f.retireAll()
	return nil
}

// discard recycles every pipeline buffer: after a COMMIT proved the
// data stable, or on an error path once the failure is reported and
// the pipeline's contents can no longer be guaranteed.
func (f *File) discard() {
	for _, w := range f.wb.window {
		w.fin() //nolint:errcheck // futures hold reply slots
		putChunk(w.buf)
	}
	f.wb.window = f.wb.window[:0]
	for _, r := range f.wb.dirty {
		putChunk(r.buf)
	}
	f.wb.dirty = f.wb.dirty[:0]
	if f.wb.buf != nil {
		putChunk(f.wb.buf)
		f.wb.buf = nil
	}
	f.wb.mismatch = false
	f.wb.verfOK = false
}

// retransmit re-sends every dirty range after a verifier change told
// us the server rebooted and dropped its unstable data.
func (f *File) retransmit() error {
	f.wb.mismatch = false
	f.wb.verfOK = false
	ios := f.stats()
	for _, r := range f.wb.dirty {
		ios.retransOps.Inc()
		ios.retransB.Add(uint64(len(r.buf)))
		fin, err := f.node.view.WriteStart(f.node.fh, r.off, r.buf, nfs.Unstable)
		if err != nil {
			return err
		}
		n, verf, err := fin()
		if err == nil && int(n) < len(r.buf) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return err
		}
		if f.wb.verfOK && verf != f.wb.verf {
			f.wb.mismatch = true
		}
		f.wb.verf, f.wb.verfOK = verf, true
	}
	return nil
}

// Stat resolves path (following symbolic links) and returns its
// attributes.
func (c *Client) Stat(user, path string) (nfs.Fattr, error) {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return nfs.Fattr{}, err
	}
	return n.view.GetAttr(n.fh)
}

// Lstat is Stat without following a final symbolic link.
func (c *Client) Lstat(user, path string) (nfs.Fattr, error) {
	n, err := c.resolve(user, path, false, 0)
	if err != nil {
		return nfs.Fattr{}, err
	}
	return n.attr, nil
}

// Open resolves path to an open file.
func (c *Client) Open(user, path string) (*File, error) {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return nil, err
	}
	return &File{node: n, size: n.attr.Size}, nil
}

// Access checks permissions on path for user (the ACCESS RPC, served
// from the access cache when enabled).
func (c *Client) Access(user, path string, mode uint32) (uint32, error) {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return 0, err
	}
	return n.view.Access(n.fh, mode)
}

// resolveParent resolves the directory part of path and returns the
// final name component.
func (c *Client) resolveParent(user, path string) (*node, string, error) {
	trimmed := strings.TrimSuffix(path, "/")
	i := strings.LastIndexByte(trimmed, '/')
	if i <= 0 {
		return nil, "", ErrNotSFS
	}
	dir, name := trimmed[:i], trimmed[i+1:]
	if name == "" {
		return nil, "", errors.New("client: empty file name")
	}
	n, err := c.resolve(user, dir, true, 0)
	if err != nil {
		return nil, "", err
	}
	return n, name, nil
}

// Create makes (or truncates) a regular file and returns it open.
func (c *Client) Create(user, path string, mode uint32) (*File, error) {
	dir, name, err := c.resolveParent(user, path)
	if err != nil {
		return nil, err
	}
	fh, attr, err := dir.view.Create(dir.fh, name, mode, false)
	if err != nil {
		return nil, err
	}
	return &File{node: &node{view: dir.view, mount: dir.mount, fh: fh, attr: attr}, size: attr.Size}, nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(user, path string, mode uint32) error {
	dir, name, err := c.resolveParent(user, path)
	if err != nil {
		return err
	}
	_, _, err = dir.view.Mkdir(dir.fh, name, mode)
	return err
}

// Symlink creates a symbolic link at path pointing to target. A
// target that is a self-certifying pathname forms a secure link
// (paper §2.4).
func (c *Client) Symlink(user, path, target string) error {
	dir, name, err := c.resolveParent(user, path)
	if err != nil {
		return err
	}
	_, _, err = dir.view.Symlink(dir.fh, name, target)
	return err
}

// ReadLink returns the target of the symbolic link at path.
func (c *Client) ReadLink(user, path string) (string, error) {
	n, err := c.resolve(user, path, false, 0)
	if err != nil {
		return "", err
	}
	if n.attr.Type != nfs.TypeSymlink {
		return "", errors.New("client: not a symbolic link")
	}
	return n.view.Readlink(n.fh)
}

// Remove unlinks a file.
func (c *Client) Remove(user, path string) error {
	dir, name, err := c.resolveParent(user, path)
	if err != nil {
		return err
	}
	return dir.view.Remove(dir.fh, name)
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(user, path string) error {
	dir, name, err := c.resolveParent(user, path)
	if err != nil {
		return err
	}
	return dir.view.Rmdir(dir.fh, name)
}

// Rename moves from to to. Both must resolve into the same mount.
func (c *Client) Rename(user, from, to string) error {
	fromDir, fromName, err := c.resolveParent(user, from)
	if err != nil {
		return err
	}
	toDir, toName, err := c.resolveParent(user, to)
	if err != nil {
		return err
	}
	if fromDir.mount != toDir.mount {
		return errors.New("client: cross-server rename")
	}
	return fromDir.view.Rename(fromDir.fh, fromName, toDir.fh, toName)
}

// readDirPage is the number of directory entries one READDIR asks for.
const readDirPage = 256

// ReadDir lists a directory.
func (c *Client) ReadDir(user, path string) ([]nfs.Entry, error) {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return nil, err
	}
	var out []nfs.Entry
	cookie := uint64(0)
	for {
		ents, eof, err := n.view.ReadDir(n.fh, cookie, readDirPage)
		if err != nil {
			return nil, err
		}
		out = append(out, ents...)
		if len(ents) > 0 {
			cookie = ents[len(ents)-1].Cookie
		}
		if eof {
			return out, nil
		}
	}
}

// ReadFile returns the entire contents of the file at path, read
// through the open file's read-ahead window into a buffer sized from
// its attributes.
func (c *Client) ReadFile(user, path string) ([]byte, error) {
	f, err := c.Open(user, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, 0, min(f.size, 1<<30)) // capped: the size is the server's claim
	for {
		data, eof, err := f.fetch(uint64(len(out)), wireChunk)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
		if eof || len(data) == 0 {
			return out, nil
		}
	}
}

// WriteFile creates path with the given contents. The data is flushed
// to the server (so any handle observes it) but not committed; call
// Sync on an open File for stability.
func (c *Client) WriteFile(user, path string, data []byte) error {
	f, err := c.Create(user, path, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return err
	}
	return f.Flush()
}

// Truncate sets the file size.
func (c *Client) Truncate(user, path string, size uint64) error {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return err
	}
	_, err = n.view.SetAttr(nfs.SetAttrArgs{FH: n.fh, SetSize: &size})
	return err
}

// Chmod changes permission bits.
func (c *Client) Chmod(user, path string, mode uint32) error {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return err
	}
	_, err = n.view.SetAttr(nfs.SetAttrArgs{FH: n.fh, SetMode: &mode})
	return err
}

// SelfPath returns the full self-certifying pathname of the mount
// containing path — what pwd prints inside an SFS file system, the
// basis of secure bookmarks (paper §2.4).
func (c *Client) SelfPath(user, path string) (string, error) {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return "", err
	}
	return n.mount.path.String(), nil
}

// Stats returns RPC/cache statistics for the mount containing path.
func (c *Client) Stats(user, path string) (nfs.Stats, error) {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return nfs.Stats{}, err
	}
	return n.view.Stats(), nil
}

// Attr returns the attributes the file was opened with.
func (f *File) Attr() nfs.Fattr { return f.node.attr }

// ReadAt reads up to len(p) bytes at offset off. Sequential reads are
// pipelined: a window of READs stays in flight so each call usually
// finds its data already on the wire (the paper's Figure 5 workload).
func (f *File) ReadAt(p []byte, off uint64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readAt(p, off)
}

func (f *File) readAt(p []byte, off uint64) (int, error) {
	data, eof, err := f.fetch(off, uint32(len(p)))
	if err != nil {
		return 0, err
	}
	n := copy(p, data)
	if eof && n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// fetch returns up to count bytes at off and whether they end the
// file. The slice may alias the view's data cache: callers copy it out
// and never modify it.
func (f *File) fetch(off uint64, count uint32) ([]byte, bool, error) {
	// A read must observe every write issued before it; the server
	// dispatches out of order, so wait for in-flight WRITEs first.
	// (Acknowledged dirty data is already applied server-side and
	// need not block reads.)
	if f.wb.active() {
		if err := f.flush(); err != nil {
			return nil, false, err
		}
		if err := f.wb.takeErr(); err != nil {
			return nil, false, err
		}
	}
	ra := &f.ra
	ios := f.stats()
	if len(ra.window) > 0 && (ra.chunk != count || ra.head != off) {
		ra.drain() // request shape changed: speculation is useless
	}
	if len(ra.window) == 0 {
		ios.raMisses.Inc()
		if off != ra.lastEnd || count == 0 {
			// Non-sequential access: one direct READ, remembering
			// where it stopped so a following sequential read starts
			// the pipe.
			data, eof, err := f.node.view.Read(f.node.fh, off, count)
			ra.lastEnd = off + uint64(len(data))
			return data, eof, err
		}
		// Pipeline startup: this read still pays a full round trip.
		ra.chunk, ra.head, ra.issued = count, off, off
	} else {
		ios.raHits.Inc()
	}
	// The read asked for is always issued; speculation stops at the
	// size the File knows, so a stale size costs speed, never bytes.
	for len(ra.window) == 0 || len(ra.window) < windowDepth && ra.issued < f.size {
		fin, err := f.node.view.ReadStart(f.node.fh, ra.issued, count)
		if err != nil {
			ra.drain()
			return nil, false, err
		}
		ra.window = append(ra.window, fin)
		ra.issued += uint64(count)
		ios.raChunks.Inc()
	}
	fin := ra.window[0]
	ra.window = ra.window[1:]
	data, eof, err := fin()
	if err != nil {
		ra.drain()
		return nil, false, err
	}
	ra.head = off + uint64(count)
	ra.lastEnd = off + uint64(len(data))
	if eof || len(data) < int(count) {
		// Final or short chunk: outstanding speculative READs target
		// offsets the caller will not ask for next.
		ra.drain()
	}
	return data, eof, nil
}

// Read reads from the cursor.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.readAt(p, f.off)
	f.off += uint64(n)
	if n == 0 && err == nil {
		err = io.EOF
	}
	return n, err
}

// WriteAt writes p at offset off (unstable; call Sync for stability).
// The write goes behind: p is copied into pooled wire-sized chunks —
// adjacent small writes coalesce into full chunks — and up to 8
// unstable WRITEs ride the channel at once, so the call usually
// returns before the server acknowledges. A deferred RPC failure is
// reported by the next WriteAt, Sync, or Close.
func (f *File) WriteAt(p []byte, off uint64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeAt(p, off)
}

func (f *File) writeAt(p []byte, off uint64) (int, error) {
	f.wrote = true
	// Reads still in the pipeline were issued before this write and
	// could return stale data to a later sequential read.
	f.ra.drain()
	if err := f.wb.takeErr(); err != nil {
		return 0, err
	}
	if end := off + uint64(len(p)); len(p) > 0 && end > f.size {
		f.size = end
	}
	written := 0
	for written < len(p) {
		o := off + uint64(written)
		if len(f.wb.buf) > 0 && f.wb.bufOff+uint64(len(f.wb.buf)) != o {
			// Non-adjacent write: flush the partial chunk first.
			if err := f.issueChunk(); err != nil {
				return written, err
			}
		}
		if f.wb.buf == nil {
			f.wb.buf = getChunk()
		}
		if len(f.wb.buf) == 0 {
			f.wb.bufOff = o
		}
		n := min(wireChunk-len(f.wb.buf), len(p)-written)
		f.wb.buf = append(f.wb.buf, p[written:written+n]...)
		written += n
		if len(f.wb.buf) == wireChunk {
			if err := f.issueChunk(); err != nil {
				return written, err
			}
		}
	}
	if err := f.wb.takeErr(); err != nil {
		return written, err
	}
	return written, nil
}

// Write writes at the cursor.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.writeAt(p, f.off)
	f.off += uint64(n)
	return n, err
}

// Seek sets the cursor (whence 0 only).
func (f *File) Seek(off uint64) {
	f.mu.Lock()
	f.off = off
	f.mu.Unlock()
}

// Flush pushes buffered write-behind data to the server and waits for
// the acknowledgments, without forcing stability: a fresh handle then
// observes the data, but only Sync guarantees it survives a server
// reboot.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.flush(); err != nil {
		return err
	}
	return f.wb.takeErr()
}

// Sync commits unstable writes to stable storage: outstanding
// write-behind chunks are flushed, then one COMMIT covers the whole
// batch. If the COMMIT's verifier does not match the WRITE replies'
// the server rebooted and lost unstable data, and every dirty range
// is retransmitted before committing again — the same stability
// guarantee the synchronous path gives, paid once per Sync instead of
// per WRITE. A file whose writes still fit the one unsent coalescing
// chunk skips COMMIT entirely: the chunk goes out FILE_SYNC, saving a
// round trip on small-file creates.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sync()
}

func (f *File) sync() error {
	if f.wb.err == nil && len(f.wb.window) == 0 && len(f.wb.dirty) == 0 && len(f.wb.buf) > 0 {
		return f.syncSmall()
	}
	if err := f.flush(); err != nil {
		f.discard()
		return err
	}
	if err := f.wb.takeErr(); err != nil {
		f.discard()
		return err
	}
	for attempt := 0; ; attempt++ {
		verf, err := f.node.view.Commit(f.node.fh)
		if err != nil {
			f.discard()
			return err
		}
		if len(f.wb.dirty) == 0 || (!f.wb.mismatch && verf == f.wb.verf) {
			f.discard()
			return nil
		}
		// Verifier change: the server rebooted since a WRITE was
		// acknowledged, so its unstable data is gone (RFC 1813 §4.8).
		if attempt >= maxCommitRetries {
			f.discard()
			return nfs.Error(nfs.ErrIO)
		}
		if err := f.retransmit(); err != nil {
			f.discard()
			return err
		}
	}
}

// syncSmall stabilizes a single still-unsent chunk with one FILE_SYNC
// WRITE instead of WRITE + COMMIT.
func (f *File) syncSmall() error {
	buf, off := f.wb.buf, f.wb.bufOff
	f.wb.buf = nil
	f.stats().syncSmall.Inc()
	fin, err := f.node.view.WriteStart(f.node.fh, off, buf, nfs.FileSync)
	if err != nil {
		putChunk(buf)
		return err
	}
	n, _, err := fin()
	putChunk(buf)
	if err == nil && int(n) < len(buf) {
		err = io.ErrShortWrite
	}
	return err
}

// Close flushes and commits buffered writes (when the file was
// written to) and releases the read pipeline. Closing again is a
// no-op.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var err error
	if f.wrote {
		err = f.sync()
	}
	f.ra.drain()
	return err
}

// Chmod changes the open file's permission bits — one RPC on the
// already-resolved handle, like fchmod/fchown on a file descriptor.
func (f *File) Chmod(mode uint32) error {
	_, err := f.node.view.SetAttr(nfs.SetAttrArgs{FH: f.node.fh, SetMode: &mode})
	return err
}

// Chown changes the open file's owner.
func (f *File) Chown(uid uint32) error {
	_, err := f.node.view.SetAttr(nfs.SetAttrArgs{FH: f.node.fh, SetUID: &uid})
	return err
}

// UserName maps a numeric user ID from attributes under path to a
// human-readable name via the libsfs ID-mapping service (paper §3.3).
// Names relative to the remote server are prefixed with "%"; when the
// client's own idea of the ID (Config.LocalUsers) agrees with the
// server's, the percent sign is omitted — e.g. on a LAN where client
// and server share accounts.
func (c *Client) UserName(user, path string, uid uint32) (string, error) {
	n, err := c.resolve(user, path, true, 0)
	if err != nil {
		return "", err
	}
	names, _, err := n.view.IDNames([]uint32{uid}, nil)
	if err != nil {
		return "", err
	}
	remote := names[0]
	if remote == "" {
		return fmt.Sprintf("%d", uid), nil
	}
	if c.cfg.LocalUsers != nil && c.cfg.LocalUsers[uid] == remote {
		return remote, nil
	}
	return "%" + remote, nil
}
