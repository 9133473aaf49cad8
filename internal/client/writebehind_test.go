package client_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

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
		fs, err := vfs.NewWithStores(ds, ds)
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
