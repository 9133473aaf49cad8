package vfs

// Disk-backed vfs tests: the same FS API served from storage/diskstore,
// where Restart is a real crash (torn WAL tail, epoch bump, full
// replay), and a close/reopen must reproduce the entire namespace from
// the journal.

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage/diskstore"
	"repro/internal/storage/wal"
)

// restartT crashes and restarts fs, failing the test if it cannot.
func restartT(t *testing.T, fs *FS) {
	t.Helper()
	if err := fs.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
}

// crashBuffered restarts fs after checking the premise of a test that
// expects the crash to lose an unstable write: the journal's appends
// total less than wal.DefaultAutoFlush, so none spilled to the OS.
func crashBuffered(t *testing.T, fs *FS) {
	t.Helper()
	if got := fs.StorageStats().WALBytes; got >= wal.DefaultAutoFlush {
		t.Fatalf("journal appends total %d bytes, not below the %d-byte spill mark: the unstable tail did not stay buffered", got, wal.DefaultAutoFlush)
	}
	restartT(t, fs)
}

// newDiskFS opens a disk-backed FS in dir with a deterministic clock
// (satellite: no wall-clock reads in the log path, so replay is
// bit-stable). Each call to the clock advances one second from a
// fixed origin.
func newDiskFS(t *testing.T, dir string, opts diskstore.Options) (*FS, *diskstore.Store) {
	t.Helper()
	ds, err := diskstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("diskstore.Open: %v", err)
	}
	fs, err := NewWithStore(ds)
	if err != nil {
		t.Fatalf("NewWithStore: %v", err)
	}
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	var tick atomic.Int64 // concurrent writers stamp records in parallel
	fs.clock = func() time.Time {
		return base.Add(time.Duration(tick.Add(1)) * time.Second)
	}
	return fs, ds
}

// TestDiskNamespacePersistence drives every journaled mutation —
// create, mkdir, symlink, link, rename, remove, rmdir, setattr,
// truncate — then closes the store and reopens it, asserting the
// replayed tree matches what was built.
func TestDiskNamespacePersistence(t *testing.T) {
	dir := t.TempDir()
	fs, ds := newDiskFS(t, dir, diskstore.Options{})

	d1, _, err := fs.Mkdir(root, fs.Root(), "dir1", 0o750)
	if err != nil {
		t.Fatal(err)
	}
	f1, _, err := fs.Create(root, d1, "file1", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(root, f1, 0, []byte("file one content"), false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Commit(f1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Symlink(root, d1, "ln", "../dir1/file1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(root, f1, fs.Root(), "hard1"); err != nil {
		t.Fatal(err)
	}
	// A removed file and a removed directory must stay gone.
	if _, _, err := fs.Create(root, d1, "doomed", 0o600, true); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(root, d1, "doomed"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Mkdir(root, fs.Root(), "doomeddir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(root, fs.Root(), "doomeddir"); err != nil {
		t.Fatal(err)
	}
	// Rename across directories, and attribute surgery.
	if err := fs.Rename(root, d1, "file1", fs.Root(), "renamed1"); err != nil {
		t.Fatal(err)
	}
	mode := uint32(0o604)
	size := uint64(4)
	if _, err := fs.SetAttrs(root, f1, SetAttr{Mode: &mode, Size: &size}); err != nil {
		t.Fatal(err)
	}
	wantAttr, err := fs.GetAttr(f1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, ds2 := newDiskFS(t, dir, diskstore.Options{})
	defer ds2.Close()
	if got := fs2.LastReplay(); got.Records == 0 {
		t.Fatalf("LastReplay = %+v, want replayed records", got)
	}

	// The tree: /renamed1 (was dir1/file1), /hard1 (same id), /dir1/ln.
	id, attr, err := fs2.Lookup(root, fs2.Root(), "renamed1")
	if err != nil {
		t.Fatal(err)
	}
	if id != f1 {
		t.Fatalf("renamed1 id = %d, want %d (ids persist)", id, f1)
	}
	if attr.Mode != 0o604 || attr.Size != 4 || attr.Nlink != 2 {
		t.Fatalf("replayed attr = %+v, want mode 0604, size 4, nlink 2", attr)
	}
	if attr.UID != wantAttr.UID || !attr.Mtime.Equal(wantAttr.Mtime) || !attr.Ctime.Equal(wantAttr.Ctime) {
		t.Fatalf("replayed attr %+v differs from pre-close %+v", attr, wantAttr)
	}
	hid, _, err := fs2.Lookup(root, fs2.Root(), "hard1")
	if err != nil || hid != f1 {
		t.Fatalf("hard1 = (%d, %v), want id %d", hid, err, f1)
	}
	data, _, err := fs2.Read(root, f1, 0, 100)
	if err != nil || string(data) != "file" {
		t.Fatalf("replayed content = %q err=%v, want the 4 truncated bytes", data, err)
	}
	d1b, _, err := fs2.Lookup(root, fs2.Root(), "dir1")
	if err != nil || d1b != d1 {
		t.Fatalf("dir1 = (%d, %v), want id %d", d1b, err, d1)
	}
	lnID, _, err := fs2.Lookup(root, d1b, "ln")
	if err != nil {
		t.Fatal(err)
	}
	target, err := fs2.Readlink(lnID)
	if err != nil || target != "../dir1/file1" {
		t.Fatalf("readlink = (%q, %v)", target, err)
	}
	for _, gone := range []struct {
		dir  FileID
		name string
	}{{d1b, "doomed"}, {fs2.Root(), "doomeddir"}, {d1b, "file1"}} {
		if _, _, err := fs2.Lookup(root, gone.dir, gone.name); err == nil {
			t.Fatalf("%q resurrected by replay", gone.name)
		}
	}

	// New ids must not collide with replayed ones.
	nid, _, err := fs2.Create(root, fs2.Root(), "post-replay", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if nid == f1 || nid == d1 {
		t.Fatalf("post-replay id %d collides with a replayed id", nid)
	}
}

// TestDiskCommitSurvivesCrash is the acceptance invariant: after a
// real crash (Restart on the disk path), acknowledged COMMIT data is
// intact and an uncommitted user-space-buffered write is gone.
func TestDiskCommitSurvivesCrash(t *testing.T) {
	fs, ds := newDiskFS(t, t.TempDir(), diskstore.Options{})
	defer ds.Close()
	id, _, err := fs.Create(root, fs.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(root, id, 0, []byte("durable"), false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Commit(id); err != nil {
		t.Fatal(err)
	}
	// Uncommitted unstable overwrite: buffered in the WAL's user-space
	// buffer (below the spill mark), lost by the crash.
	if _, err := fs.Write(root, id, 0, []byte("VOLATILE--"), false); err != nil {
		t.Fatal(err)
	}
	crashBuffered(t, fs)
	data, _, err := fs.Read(root, id, 0, 100)
	if err != nil || string(data) != "durable" {
		t.Fatalf("post-crash read = %q err=%v, want the committed image", data, err)
	}
}

// TestDiskVerifierFromEpoch: the write verifier is derived from the
// WAL epoch, so it changes on every crash AND every clean reopen, and
// two FS instances over the same epoch agree (replayed clients and a
// reopened server must compare equal verifiers).
func TestDiskVerifierFromEpoch(t *testing.T) {
	dir := t.TempDir()
	fs, ds := newDiskFS(t, dir, diskstore.Options{})
	v1 := fs.Verifier()
	restartT(t, fs)
	v2 := fs.Verifier()
	if v2 == v1 {
		t.Fatal("verifier unchanged across crash")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, ds2 := newDiskFS(t, dir, diskstore.Options{})
	defer ds2.Close()
	v3 := fs2.Verifier()
	if v3 == v1 || v3 == v2 {
		t.Fatal("verifier repeated across reopen")
	}
	// Same epoch → same verifier: mint again without a restart.
	if fs2.Verifier() != v3 {
		t.Fatal("verifier not stable within one boot")
	}
}

// TestDiskRestartConcurrentWrites exercises the crash-replay swap
// under concurrent mutation: in-flight writes may land in the old
// orphaned state or fail with ErrIO, but the FS must stay consistent
// and committed-before-crash data must survive.
func TestDiskRestartConcurrentWrites(t *testing.T) {
	fs, ds := newDiskFS(t, t.TempDir(), diskstore.Options{})
	defer ds.Close()
	id, _, err := fs.Create(root, fs.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(root, id, 0, []byte("committed"), false); err != nil {
		t.Fatal(err)
	}
	if err := fs.Commit(id); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := bytes.Repeat([]byte("w"), 512)
		for i := 0; i < 200; i++ {
			fs.Write(root, id, 9+uint64(i)*512, buf, false) //nolint:errcheck
		}
	}()
	restartT(t, fs)
	<-done
	data, _, err := fs.Read(root, id, 0, 9)
	if err != nil || string(data) != "committed" {
		t.Fatalf("post-crash read = %q err=%v", data, err)
	}
	// The FS keeps serving writes after the swap.
	if _, err := fs.Write(root, id, 0, []byte("COMMITTED"), true); err != nil {
		t.Fatal(err)
	}
}
