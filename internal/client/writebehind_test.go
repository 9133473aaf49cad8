package client_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/lab"
	"repro/internal/server"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/wal"
	"repro/internal/vfs"
)

// setupWriter provisions a user with a private writable directory and
// returns the user name and the directory's absolute client path.
func setupWriter(t *testing.T, w *lab.World, s *lab.Served, cl *client.Client, name string, uid uint32) (string, string) {
	t.Helper()
	if _, err := w.NewUser(cl, s, name, uid, ""); err != nil {
		t.Fatal(err)
	}
	dir := "home/" + name
	if _, err := s.FS.MkdirAll(rootCred(), dir, 0o755); err != nil {
		t.Fatal(err)
	}
	id, _, err := s.FS.Resolve(rootCred(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FS.SetAttrs(rootCred(), id, vfs.SetAttr{UID: &uid}); err != nil {
		t.Fatal(err)
	}
	return name, s.Path.String() + "/" + dir
}

// TestDeferredWriteErrorSurfaces revokes write permission after the
// file is open, so in-flight unstable WRITEs start failing server-side
// while WriteAt keeps accepting data locally. The pipeline must latch
// the rejection and report it at a later WriteAt or at Sync — never
// swallow it.
func TestDeferredWriteErrorSurfaces(t *testing.T) {
	w, s, cl := newWorld(t, "wberr")
	user, dir := setupWriter(t, w, s, cl, "wberr", 3100)
	path := dir + "/f.bin"
	f, err := cl.Create(user, path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Server-side chmod to read-only: every WRITE from here on is
	// rejected with a permission error, but the client learns that
	// only from the deferred replies.
	id, _, err := s.FS.Resolve(rootCred(), "home/wberr/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	mode := uint32(0o444)
	if _, err := s.FS.SetAttrs(rootCred(), id, vfs.SetAttr{Mode: &mode}); err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 8192)
	var werr error
	for i := 0; i < 16 && werr == nil; i++ {
		_, werr = f.WriteAt(chunk, uint64(i*len(chunk)))
	}
	if werr == nil {
		// Everything fit the window without a retire; the error must
		// then surface at Sync.
		werr = f.Sync()
	}
	if werr == nil {
		t.Fatal("rejected writes reported no error at WriteAt or Sync")
	}
	if !strings.Contains(werr.Error(), "perm") && !strings.Contains(werr.Error(), "access") {
		t.Fatalf("unexpected deferred error: %v", werr)
	}
	f.Close() //nolint:errcheck // pipeline already failed; only the report above matters
}

// TestWriteRetransmitAcrossServerRestart acknowledges a batch of
// unstable WRITEs, reboots the server (changing the write verifier),
// then Syncs: the client must notice the verifier change at COMMIT and
// retransmit every dirty range, ending with the data stable — the
// scenario RFC 1813 §4.8 verifiers exist for.
//
// Restart is a real crash of the disk store: the WAL tears off its
// user-space buffer (the unstable batch stays below the spill mark, so
// it is actually lost), reopens with a bumped epoch, and replays. The
// test asserts the bytes were gone before the retransmission.
func TestWriteRetransmitAcrossServerRestart(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		ds, err := diskstore.Open(t.TempDir(), diskstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		fs, err := vfs.NewWithStore(ds)
		if err != nil {
			t.Fatal(err)
		}
		testWriteRetransmit(t, fs)
	})
}

func testWriteRetransmit(t *testing.T, fs *vfs.FS) {
	w, err := lab.NewWorld("wbverf")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s, err := w.ServeFSOn(server.ServedConfig{Location: "server.example.com", LeaseMS: 30000, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := w.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		t.Fatal(err)
	}
	user, dir := setupWriter(t, w, s, cl, "wbverf", 3200)
	path := dir + "/big.bin"
	f, err := cl.Create(user, path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KB, 8 chunks
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Flush retires every in-flight WRITE: the server has acknowledged
	// all 64 KB as unstable, nothing is committed yet.
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	// Server crash+reboot: the boot verifier changes and the
	// uncommitted data, still buffered in the journal, is gone.
	if got := s.FS.StorageStats().WALBytes; got >= wal.DefaultAutoFlush {
		t.Fatalf("journal appends total %d bytes, not below the %d-byte spill mark", got, wal.DefaultAutoFlush)
	}
	if err := s.FS.Restart(); err != nil {
		t.Fatal(err)
	}
	onServer, err := s.FS.ReadFile(rootCred(), "home/wbverf/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(onServer, data) {
		t.Fatalf("after the crash the server still holds all %d uncommitted bytes", len(data))
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := cl.IOStats(); st.RetransmittedBytes != uint64(len(data)) {
		t.Fatalf("retransmitted %d bytes after the verifier changed, want %d", st.RetransmittedBytes, len(data))
	}
	// The retransmitted data must now be stable: it survives another
	// reboot.
	if err := s.FS.Restart(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile(user, path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("post-restart readback: %d bytes, want %d", len(got), len(data))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWriteSyncCloseOneFile hammers a single File from many
// goroutines mixing WriteAt, Sync, and a final Close — the write-behind
// window, dirty-range ledger, and chunk pool must stay consistent under
// the race detector, and every byte must land.
func TestConcurrentWriteSyncCloseOneFile(t *testing.T) {
	w, s, cl := newWorld(t, "wbrace")
	user, dir := setupWriter(t, w, s, cl, "wbrace", 3300)
	path := dir + "/shared.bin"
	f, err := cl.Create(user, path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const region = 64 << 10 // per-worker byte range, 8 chunks each
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + i)}, 8192)
			base := uint64(i * region)
			for off := 0; off < region; off += len(payload) {
				if _, err := f.WriteAt(payload, base+uint64(off)); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", i, err)
					return
				}
			}
			if err := f.Sync(); err != nil {
				errs <- fmt.Errorf("worker %d sync: %w", i, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile(user, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*region {
		t.Fatalf("file is %d bytes, want %d", len(got), workers*region)
	}
	for i := 0; i < workers; i++ {
		want := byte('a' + i)
		for off := i * region; off < (i+1)*region; off++ {
			if got[off] != want {
				t.Fatalf("byte %d = %q, want %q", off, got[off], want)
			}
		}
	}
	_ = s
}

// TestMixedReadWriteOneChannel interleaves write-behind pipelines and
// readahead pipelines from many goroutines on one secure channel: some
// goroutines stream writes to private files, others stream reads of a
// shared file, and one goroutine alternates reads and writes on a
// single File (which forces the two pipelines to drain each other).
func TestMixedReadWriteOneChannel(t *testing.T) {
	w, s, cl := newWorld(t, "wbmix")
	user, dir := setupWriter(t, w, s, cl, "wbmix", 3400)
	big := bytes.Repeat([]byte("fedcba9876543210"), 4096) // 64 KB
	if err := s.FS.WriteFile(rootCred(), "home/wbmix/big.bin", big, 0o644); err != nil {
		t.Fatal(err)
	}
	const writers = 2
	const readers = 2
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("%s/w%d.bin", dir, i)
			f, err := cl.Create(user, path, 0o644)
			if err != nil {
				errs <- err
				return
			}
			payload := bytes.Repeat([]byte{byte('0' + i)}, 8192)
			for off := 0; off < 64<<10; off += len(payload) {
				if _, err := f.WriteAt(payload, uint64(off)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", i, err)
					return
				}
			}
			if err := f.Close(); err != nil {
				errs <- fmt.Errorf("writer %d close: %w", i, err)
			}
		}()
	}
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				got, err := cl.ReadFile(user, dir+"/big.bin")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", i, err)
					return
				}
				if !bytes.Equal(got, big) {
					errs <- fmt.Errorf("reader %d: corrupted read of %d bytes", i, len(got))
					return
				}
			}
		}()
	}
	// Read/write alternation on one File: every ReadAt must drain the
	// write window first and still see the freshest bytes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		f, err := cl.Create(user, dir+"/rw.bin", 0o644)
		if err != nil {
			errs <- err
			return
		}
		defer f.Close() //nolint:errcheck
		buf := make([]byte, 8192)
		for j := 0; j < 8; j++ {
			payload := bytes.Repeat([]byte{byte('A' + j)}, 8192)
			if _, err := f.WriteAt(payload, 0); err != nil {
				errs <- fmt.Errorf("rw write %d: %w", j, err)
				return
			}
			if _, err := f.ReadAt(buf, 0); err != nil {
				errs <- fmt.Errorf("rw read %d: %w", j, err)
				return
			}
			if !bytes.Equal(buf, payload) {
				errs <- fmt.Errorf("rw iteration %d: read stale data %q", j, buf[:8])
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	_ = w
}

// mappedChunks is the client's write-behind slab memory.
func mappedChunks(cl *client.Client) uint64 { return cl.IOStats().WriteBehindMappedBytes }

// TestWriteBehindSteadyStateMapsOnce: a chunk pool in use keeps its
// slabs across a Sync, so a second round of the same size writes into
// the first round's slabs, mapping and unmapping nothing.
func TestWriteBehindSteadyStateMapsOnce(t *testing.T) {
	w, s, cl := newWorld(t, "wbsteady")
	user, dir := setupWriter(t, w, s, cl, "wbsteady", 3500)
	f, err := cl.Create(user, dir+"/steady.bin", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()       //nolint:errcheck
	const round = 4 << 20 // four slabs of chunks, held until the Sync
	chunk := make([]byte, 8192)
	for r := range 2 {
		for off := 0; off < round; off += len(chunk) {
			if _, err := f.WriteAt(chunk, uint64(off)); err != nil {
				t.Fatal(err)
			}
			if m := mappedChunks(cl); r == 1 && m != round {
				t.Fatalf("round 2, offset %d: writebehind_mapped_bytes = %d, want the first round's %d", off, m, round)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if m := mappedChunks(cl); m != round {
			t.Fatalf("after round %d's Sync: writebehind_mapped_bytes = %d, want %d kept", r+1, m, round)
		}
	}
}

// TestWriteBehindReleasesOnClose: Client.Close leaves mapped only the
// slabs whose chunks a File still holds, the File gets errors rather
// than touching unmapped memory, and the mapping reaches 0 once the
// File gives its chunks back.
func TestWriteBehindReleasesOnClose(t *testing.T) {
	w, s, cl := newWorld(t, "wbclose")
	user, dir := setupWriter(t, w, s, cl, "wbclose", 3600)
	f, err := cl.Create(user, dir+"/held.bin", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Eight chunks in flight or awaiting COMMIT, and a partial one.
	if _, err := f.WriteAt(make([]byte, 64<<10+100), 0); err != nil {
		t.Fatal(err)
	}
	if m := mappedChunks(cl); m == 0 {
		t.Fatal("no chunk memory mapped while chunks are held")
	}
	cl.Close()
	if m := mappedChunks(cl); m == 0 {
		t.Fatal("Client.Close unmapped a slab whose chunks a File still holds")
	}
	// The partial chunk is still the File's to fill; the next chunk is
	// not to be had, and the batch cannot be committed.
	if _, err := f.WriteAt([]byte("tail"), 64<<10+100); err != nil {
		t.Fatalf("write into the held partial chunk: %v", err)
	}
	if _, err := f.WriteAt([]byte("elsewhere"), 1<<20); err == nil {
		t.Fatal("a write needing a new chunk succeeded after Client.Close")
	}
	if err := f.Close(); err == nil {
		t.Fatal("File.Close committed after Client.Close")
	}
	if m := mappedChunks(cl); m != 0 {
		t.Fatalf("writebehind_mapped_bytes = %d once every chunk is back, want 0", m)
	}
}

// TestDroppedFileReturnsChunks: a File dropped with chunks in flight,
// never synced or closed, returns them through its finalizer; without
// it their slab would stay mapped for good.
func TestDroppedFileReturnsChunks(t *testing.T) {
	w, s, cl := newWorld(t, "wbdrop")
	user, dir := setupWriter(t, w, s, cl, "wbdrop", 3700)
	func() {
		f, err := cl.Create(user, dir+"/dropped.bin", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 64<<10+100), 0); err != nil {
			t.Fatal(err)
		}
	}()
	if m := mappedChunks(cl); m == 0 {
		t.Fatal("no chunk memory mapped while the dropped File holds chunks")
	}
	runtime.GC()
	runtime.GC()
	// After Close a slab is unmapped as soon as its last chunk comes
	// back, so the mapping reads 0 exactly when no chunk is live.
	cl.Close()
	for deadline := time.Now().Add(5 * time.Second); mappedChunks(cl) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("writebehind_mapped_bytes = %d: the dropped File's chunks never came back", mappedChunks(cl))
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQuietClientReleasesChunkSlabs: one File holds a partial chunk, so
// the client's pool never drains, while another writes and syncs 4 MiB.
// Once the client has taken no chunk for two GC cycles, every slab but
// the held chunk's is unmapped, and the holder writes on.
func TestQuietClientReleasesChunkSlabs(t *testing.T) {
	w, s, cl := newWorld(t, "wbquiet")
	user, dir := setupWriter(t, w, s, cl, "wbquiet", 3800)
	log, err := cl.Create(user, dir+"/log.txt", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteAt([]byte("first line\n"), 0); err != nil {
		t.Fatal(err)
	}
	big, err := cl.Create(user, dir+"/big.bin", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4 << 20
	if _, err := big.WriteAt(make([]byte, batch), 0); err != nil {
		t.Fatal(err)
	}
	if err := big.Close(); err != nil {
		t.Fatal(err)
	}
	if m := mappedChunks(cl); m <= batch {
		t.Fatalf("writebehind_mapped_bytes = %d after a %d-byte batch beside a held chunk", m, batch)
	}
	for deadline := time.Now().Add(5 * time.Second); mappedChunks(cl) != 1<<20; {
		if time.Now().After(deadline) {
			t.Fatalf("writebehind_mapped_bytes = %d long after the client went quiet, want the held chunk's one slab", mappedChunks(cl))
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := log.WriteAt([]byte("second line\n"), 11); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile(user, dir+"/log.txt")
	if err != nil || string(got) != "first line\nsecond line\n" {
		t.Fatalf("log reads %q, %v", got, err)
	}
}

// TestWriteBehindBypassesCacheForLargeFile: a write-behind stream over
// a file four times the client's data cache keeps no copy of its
// chunks, yet drops what the cache held of the range it overwrote — a
// block cached by an earlier random read reads back the new bytes.
// Race builds poison every chunk write-behind returns to its pool, so
// a cache entry still pointing into one would read back poison.
func TestWriteBehindBypassesCacheForLargeFile(t *testing.T) {
	const budget = 4 * 8192
	w, s, cl := readAheadWorld(t, client.Config{EnhancedCaching: true, DataCacheBytes: budget})
	user, dir := setupWriter(t, w, s, cl, "streamer", 3900)
	path := dir + "/large.bin"
	old := pattern(4 * budget)
	if err := s.FS.WriteFile(rootCred(), strings.TrimPrefix(path, s.Path.String()+"/"), old, 0o666); err != nil {
		t.Fatal(err)
	}
	f, err := cl.Open(user, path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	const cachedBlock = 5
	buf := make([]byte, 8192)
	if _, err := f.ReadAt(buf, cachedBlock*8192); err != nil || !bytes.Equal(buf, old[cachedBlock*8192:][:8192]) {
		t.Fatalf("priming read: err %v or wrong bytes", err)
	}
	if st, _ := cl.Stats(user, path); st.DataBytesCached != 8192 {
		t.Fatalf("a random read cached %d bytes, want one block", st.DataBytesCached)
	}

	fresh := bytes.Repeat([]byte("fresh bytes "), len(old)/12+1)[:len(old)]
	for off := 0; off < len(fresh); off += 8192 {
		if _, err := f.WriteAt(fresh[off:off+8192], uint64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	st, _ := cl.Stats(user, path)
	if st.DataBytesCached != 0 {
		t.Fatalf("after the stream the cache holds %d bytes, want 0", st.DataBytesCached)
	}
	if blocks := uint64(len(fresh) / 8192); st.DataBypassed != blocks {
		t.Fatalf("data_bypassed = %d, want the stream's %d blocks", st.DataBypassed, blocks)
	}
	if _, err := f.ReadAt(buf, cachedBlock*8192); err != nil || !bytes.Equal(buf, fresh[cachedBlock*8192:][:8192]) {
		t.Fatalf("overwritten block read back: err %v, %q...", err, buf[:16])
	}
	if got, err := cl.ReadFile(user, path); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("whole file read back: err %v or wrong bytes", err)
	}
}

// TestSmallWrittenFilesRereadWarm guards the meta_small shape: 1 KiB
// files written through the pipeline (one FILE_SYNC WRITE each) are
// re-read from the client's cache, with zero READs.
func TestSmallWrittenFilesRereadWarm(t *testing.T) {
	w, s, cl := newWorld(t, "smallwarm")
	user, dir := setupWriter(t, w, s, cl, "smallwarm", 4000)
	files := make(map[string][]byte)
	for i := range 20 {
		path := fmt.Sprintf("%s/f%02d", dir, i)
		files[path] = bytes.Repeat([]byte{byte('a' + i)}, 1024)
		if err := cl.WriteFile(user, path, files[path]); err != nil {
			t.Fatal(err)
		}
	}
	before := serverReads(t, w, s)
	for path, want := range files {
		if got, err := cl.ReadFile(user, path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: err %v or wrong bytes", path, err)
		}
	}
	if reads := serverReads(t, w, s) - before; reads != 0 {
		t.Fatalf("re-reading %d freshly written 1 KiB files cost %d READs, want 0", len(files), reads)
	}
}
