package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage/diskstore"
)

var (
	alice = Cred{UID: 1000, GIDs: []uint32{1000}}
	bob   = Cred{UID: 1001, GIDs: []uint32{1001}}
	root  = Cred{UID: 0, GIDs: []uint32{0}}
)

func TestRootAttributes(t *testing.T) {
	fs := New()
	a, err := fs.GetAttr(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if a.Type != TypeDir {
		t.Fatal("root is not a directory")
	}
	if a.Nlink < 2 {
		t.Fatalf("root nlink %d", a.Nlink)
	}
}

func TestCreateLookupReadWrite(t *testing.T) {
	fs := New()
	id, attr, err := fs.Create(root, fs.Root(), "hello.txt", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != TypeReg || attr.Size != 0 {
		t.Fatalf("bad attrs %+v", attr)
	}
	if _, err := fs.Write(root, id, 0, []byte("hello, world"), false); err != nil {
		t.Fatal(err)
	}
	got, lattr, err := fs.Lookup(root, fs.Root(), "hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != id || lattr.Size != 12 {
		t.Fatalf("lookup: id=%d size=%d", got, lattr.Size)
	}
	data, eof, err := fs.Read(root, id, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello, world" || !eof {
		t.Fatalf("read %q eof=%v", data, eof)
	}
}

func TestReadOffsets(t *testing.T) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
	fs.Write(root, id, 0, []byte("0123456789"), false) //nolint:errcheck
	data, eof, err := fs.Read(root, id, 3, 4)
	if err != nil || string(data) != "3456" || eof {
		t.Fatalf("mid read: %q eof=%v err=%v", data, eof, err)
	}
	data, eof, _ = fs.Read(root, id, 8, 10)
	if string(data) != "89" || !eof {
		t.Fatalf("tail read: %q eof=%v", data, eof)
	}
	data, eof, _ = fs.Read(root, id, 100, 10)
	if len(data) != 0 || !eof {
		t.Fatalf("past-end read: %q eof=%v", data, eof)
	}
}

func TestSparseWrite(t *testing.T) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "sparse", 0o644, true)
	if _, err := fs.Write(root, id, 1000, []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	a, _ := fs.GetAttr(id)
	if a.Size != 1001 {
		t.Fatalf("size %d, want 1001", a.Size)
	}
	data, _, _ := fs.Read(root, id, 0, 10)
	if !bytes.Equal(data, make([]byte, 10)) {
		t.Fatal("hole not zero-filled")
	}
}

func TestExclusiveCreate(t *testing.T) {
	fs := New()
	if _, _, err := fs.Create(root, fs.Root(), "f", 0o644, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Create(root, fs.Root(), "f", 0o644, true); !errors.Is(err, ErrExist) {
		t.Fatalf("got %v, want ErrExist", err)
	}
	// Non-exclusive create truncates.
	id, _, _ := fs.Lookup(root, fs.Root(), "f")
	fs.Write(root, id, 0, []byte("data"), false) //nolint:errcheck
	_, attr, err := fs.Create(root, fs.Root(), "f", 0o644, false)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Size != 0 {
		t.Fatal("non-exclusive create did not truncate")
	}
}

func TestPermissionEnforcement(t *testing.T) {
	fs := New()
	dir, _, err := fs.Mkdir(root, fs.Root(), "alice", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	uid := alice.UID
	if _, err := fs.SetAttrs(root, dir, SetAttr{UID: &uid}); err != nil {
		t.Fatal(err)
	}
	// Bob cannot create in Alice's 0755 directory.
	if _, _, err := fs.Create(bob, dir, "intruder", 0o644, true); !errors.Is(err, ErrPerm) {
		t.Fatalf("got %v, want ErrPerm", err)
	}
	// Alice can.
	id, _, err := fs.Create(alice, dir, "private", 0o600, true)
	if err != nil {
		t.Fatal(err)
	}
	fs.Write(alice, id, 0, []byte("secret"), false) //nolint:errcheck
	// Bob cannot read Alice's 0600 file.
	if _, _, err := fs.Read(bob, id, 0, 10); !errors.Is(err, ErrPerm) {
		t.Fatalf("got %v, want ErrPerm", err)
	}
	// Bob cannot write it either.
	if _, err := fs.Write(bob, id, 0, []byte("x"), false); !errors.Is(err, ErrPerm) {
		t.Fatalf("got %v, want ErrPerm", err)
	}
	// Root bypasses.
	if _, _, err := fs.Read(root, id, 0, 10); err != nil {
		t.Fatal(err)
	}
}

func TestGroupPermissions(t *testing.T) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "shared", 0o640, true)
	gid := uint32(2000)
	auid := alice.UID
	if _, err := fs.SetAttrs(root, id, SetAttr{UID: &auid, GID: &gid}); err != nil {
		t.Fatal(err)
	}
	carol := Cred{UID: 1002, GIDs: []uint32{5, 2000}}
	if _, _, err := fs.Read(carol, id, 0, 1); err != nil {
		t.Fatalf("group member denied: %v", err)
	}
	if _, _, err := fs.Read(bob, id, 0, 1); !errors.Is(err, ErrPerm) {
		t.Fatalf("non-member got %v, want ErrPerm", err)
	}
}

func TestChmodChownRules(t *testing.T) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
	auid := alice.UID
	if _, err := fs.SetAttrs(root, id, SetAttr{UID: &auid}); err != nil {
		t.Fatal(err)
	}
	mode := uint32(0o600)
	if _, err := fs.SetAttrs(alice, id, SetAttr{Mode: &mode}); err != nil {
		t.Fatalf("owner chmod: %v", err)
	}
	if _, err := fs.SetAttrs(bob, id, SetAttr{Mode: &mode}); !errors.Is(err, ErrPerm) {
		t.Fatalf("non-owner chmod: got %v, want ErrPerm", err)
	}
	buid := bob.UID
	if _, err := fs.SetAttrs(alice, id, SetAttr{UID: &buid}); !errors.Is(err, ErrPerm) {
		t.Fatalf("non-root chown away: got %v, want ErrPerm", err)
	}
}

func TestTruncate(t *testing.T) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
	fs.Write(root, id, 0, []byte("0123456789"), false) //nolint:errcheck
	sz := uint64(4)
	a, err := fs.SetAttrs(root, id, SetAttr{Size: &sz})
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != 4 {
		t.Fatalf("size %d", a.Size)
	}
	sz = 8
	fs.SetAttrs(root, id, SetAttr{Size: &sz}) //nolint:errcheck
	data, _, _ := fs.Read(root, id, 0, 10)
	if !bytes.Equal(data, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("extend produced %q", data)
	}
}

func TestRemoveAndRefcounts(t *testing.T) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
	if err := fs.Link(root, id, fs.Root(), "f2"); err != nil {
		t.Fatal(err)
	}
	a, _ := fs.GetAttr(id)
	if a.Nlink != 2 {
		t.Fatalf("nlink %d, want 2", a.Nlink)
	}
	if err := fs.Remove(root, fs.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetAttr(id); err != nil {
		t.Fatal("file vanished while still linked")
	}
	if err := fs.Remove(root, fs.Root(), "f2"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetAttr(id); !errors.Is(err, ErrStale) {
		t.Fatalf("got %v, want ErrStale", err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	fs := New()
	dir, _, _ := fs.Mkdir(root, fs.Root(), "d", 0o755)
	fs.Create(root, dir, "f", 0o644, true) //nolint:errcheck
	if err := fs.Rmdir(root, fs.Root(), "d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("got %v, want ErrNotEmpty", err)
	}
	fs.Remove(root, dir, "f") //nolint:errcheck
	if err := fs.Rmdir(root, fs.Root(), "d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(root, fs.Root(), "d"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestRemoveDirWithRemoveFails(t *testing.T) {
	fs := New()
	fs.Mkdir(root, fs.Root(), "d", 0o755) //nolint:errcheck
	if err := fs.Remove(root, fs.Root(), "d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("got %v, want ErrIsDir", err)
	}
}

func TestRename(t *testing.T) {
	fs := New()
	d1, _, _ := fs.Mkdir(root, fs.Root(), "a", 0o755)
	d2, _, _ := fs.Mkdir(root, fs.Root(), "b", 0o755)
	id, _, _ := fs.Create(root, d1, "f", 0o644, true)
	fs.Write(root, id, 0, []byte("content"), false) //nolint:errcheck
	if err := fs.Rename(root, d1, "f", d2, "g"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Lookup(root, d1, "f"); !errors.Is(err, ErrNotFound) {
		t.Fatal("source still present after rename")
	}
	got, _, err := fs.Lookup(root, d2, "g")
	if err != nil || got != id {
		t.Fatalf("lookup after rename: %v", err)
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	fs := New()
	a, _, _ := fs.Create(root, fs.Root(), "a", 0o644, true)
	b, _, _ := fs.Create(root, fs.Root(), "b", 0o644, true)
	if err := fs.Rename(root, fs.Root(), "a", fs.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetAttr(b); !errors.Is(err, ErrStale) {
		t.Fatal("replaced target still alive")
	}
	got, _, _ := fs.Lookup(root, fs.Root(), "b")
	if got != a {
		t.Fatal("rename target wrong")
	}
}

func TestRenameDirectoryUpdatesParent(t *testing.T) {
	fs := New()
	d1, _, _ := fs.Mkdir(root, fs.Root(), "a", 0o755)
	d2, _, _ := fs.Mkdir(root, fs.Root(), "b", 0o755)
	sub, _, _ := fs.Mkdir(root, d1, "sub", 0o755)
	if err := fs.Rename(root, d1, "sub", d2, "sub"); err != nil {
		t.Fatal(err)
	}
	parent, _, err := fs.Lookup(root, sub, "..")
	if err != nil {
		t.Fatal(err)
	}
	if parent != d2 {
		t.Fatal(".. does not point at new parent")
	}
}

func TestSymlinkReadlink(t *testing.T) {
	fs := New()
	id, attr, err := fs.Symlink(root, fs.Root(), "link", "/sfs/host:abc")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != TypeSymlink {
		t.Fatal("wrong type")
	}
	target, err := fs.Readlink(id)
	if err != nil || target != "/sfs/host:abc" {
		t.Fatalf("readlink: %q %v", target, err)
	}
	reg, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
	if _, err := fs.Readlink(reg); !errors.Is(err, ErrNotSymlink) {
		t.Fatalf("got %v, want ErrNotSymlink", err)
	}
}

func TestReadDirCookies(t *testing.T) {
	fs := New()
	for i := 0; i < 10; i++ {
		fs.Create(root, fs.Root(), fmt.Sprintf("f%02d", i), 0o644, true) //nolint:errcheck
	}
	ents, eof, err := fs.ReadDir(root, fs.Root(), 0, 4)
	if err != nil || eof || len(ents) != 4 {
		t.Fatalf("first page: %d entries eof=%v err=%v", len(ents), eof, err)
	}
	var all []string
	cookie := uint64(0)
	for {
		ents, eof, err := fs.ReadDir(root, fs.Root(), cookie, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			all = append(all, e.Name)
			cookie = e.Cookie
		}
		if eof {
			break
		}
	}
	if len(all) != 10 {
		t.Fatalf("paged readdir returned %d entries", len(all))
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n] {
			t.Fatalf("duplicate entry %q across pages", n)
		}
		seen[n] = true
	}
}

func TestLookupDotDot(t *testing.T) {
	fs := New()
	d, _, _ := fs.Mkdir(root, fs.Root(), "d", 0o755)
	id, _, err := fs.Lookup(root, d, "..")
	if err != nil || id != fs.Root() {
		t.Fatalf("..: %v", err)
	}
	id, _, err = fs.Lookup(root, d, ".")
	if err != nil || id != d {
		t.Fatalf(".: %v", err)
	}
	// Root's .. is root.
	id, _, _ = fs.Lookup(root, fs.Root(), "..")
	if id != fs.Root() {
		t.Fatal("root .. escapes")
	}
}

func TestBadNames(t *testing.T) {
	fs := New()
	for _, name := range []string{"", ".", "..", "a/b", string(bytes.Repeat([]byte{'x'}, 300))} {
		if _, _, err := fs.Create(root, fs.Root(), name, 0o644, true); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
	}
}

func TestStaleHandles(t *testing.T) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
	fs.Remove(root, fs.Root(), "f") //nolint:errcheck
	if _, _, err := fs.Read(root, id, 0, 1); !errors.Is(err, ErrStale) {
		t.Fatalf("read stale: %v", err)
	}
	if _, err := fs.Write(root, id, 0, []byte("x"), false); !errors.Is(err, ErrStale) {
		t.Fatalf("write stale: %v", err)
	}
}

func TestSetAttrTimes(t *testing.T) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
	when := time.Date(1999, 12, 1, 0, 0, 0, 0, time.UTC)
	a, err := fs.SetAttrs(root, id, SetAttr{Mtime: &when, Atime: &when})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mtime.Equal(when) || !a.Atime.Equal(when) {
		t.Fatal("times not applied")
	}
}

func TestResolveWalk(t *testing.T) {
	fs := New()
	if err := fs.WriteFile(root, "a/b/c.txt", []byte("deep"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(root, "a/b/c.txt")
	if err != nil || string(data) != "deep" {
		t.Fatalf("ReadFile: %q %v", data, err)
	}
	if err := fs.SymlinkAt(root, "a/link", "b/c.txt"); err != nil {
		t.Fatal(err)
	}
	data, err = fs.ReadFile(root, "a/link")
	if err != nil || string(data) != "deep" {
		t.Fatalf("through symlink: %q %v", data, err)
	}
}

func TestResolveExternalTarget(t *testing.T) {
	fs := New()
	if err := fs.SymlinkAt(root, "links/verisign", "/sfs/verisign.com:abc123"); err != nil {
		t.Fatal(err)
	}
	_, ext, err := fs.Resolve(root, "links/verisign")
	if err != nil {
		t.Fatal(err)
	}
	if ext != "/sfs/verisign.com:abc123" {
		t.Fatalf("external = %q", ext)
	}
	// A path continuing through the external link carries the rest.
	if err := fs.SymlinkAt(root, "mit", "/sfs/mit.edu:xyz"); err != nil {
		t.Fatal(err)
	}
	_, ext, err = fs.Resolve(root, "mit/users/dm")
	if err != nil {
		t.Fatal(err)
	}
	if ext != "/sfs/mit.edu:xyz/users/dm" {
		t.Fatalf("external with rest = %q", ext)
	}
}

func TestSymlinkLoopDetected(t *testing.T) {
	fs := New()
	fs.SymlinkAt(root, "x", "y") //nolint:errcheck
	fs.SymlinkAt(root, "y", "x") //nolint:errcheck
	if _, _, err := fs.Resolve(root, "x"); !errors.Is(err, ErrTooManyLinks) {
		t.Fatalf("got %v, want ErrTooManyLinks", err)
	}
}

func TestMkdirAllIdempotent(t *testing.T) {
	fs := New()
	a, err := fs.MkdirAll(root, "x/y/z", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.MkdirAll(root, "x/y/z", 0o755)
	if err != nil || a != b {
		t.Fatalf("second MkdirAll: id %d vs %d, %v", a, b, err)
	}
}

// Property: after any sequence of create/remove pairs the node count
// returns to its baseline — no leaks.
func TestQuickNoNodeLeaks(t *testing.T) {
	f := func(names []string) bool {
		fs := New()
		base := fs.NumNodes()
		created := map[string]bool{}
		for _, raw := range names {
			name := fmt.Sprintf("n%x", raw)
			if len(name) > MaxNameLen {
				name = name[:MaxNameLen]
			}
			if !created[name] {
				if _, _, err := fs.Create(root, fs.Root(), name, 0o644, true); err != nil {
					return false
				}
				created[name] = true
			}
		}
		for name := range created {
			if err := fs.Remove(root, fs.Root(), name); err != nil {
				return false
			}
		}
		return fs.NumNodes() == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: written data always reads back regardless of chunking.
func TestQuickWriteReadBack(t *testing.T) {
	f := func(chunks [][]byte) bool {
		fs := New()
		id, _, err := fs.Create(root, fs.Root(), "f", 0o644, true)
		if err != nil {
			return false
		}
		var expect []byte
		off := uint64(0)
		for _, c := range chunks {
			if len(c) > 4096 {
				c = c[:4096]
			}
			if _, err := fs.Write(root, id, off, c, false); err != nil {
				return false
			}
			expect = append(expect, c...)
			off += uint64(len(c))
		}
		got, _, err := fs.Read(root, id, 0, uint32(len(expect)+1))
		if err != nil {
			return false
		}
		return bytes.Equal(got, expect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCreateRemove(b *testing.B) {
	fs := New()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("f%d", i)
		if _, _, err := fs.Create(root, fs.Root(), name, 0o644, true); err != nil {
			b.Fatal(err)
		}
		if err := fs.Remove(root, fs.Root(), name); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite8K(b *testing.B) {
	fs := New()
	id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
	buf := make([]byte, 8192)
	b.SetBytes(8192)
	for i := 0; i < b.N; i++ {
		if _, err := fs.Write(root, id, uint64(i%1000)*8192, buf, false); err != nil {
			b.Fatal(err)
		}
	}
}

// onBothStores runs f against the in-memory store and against a disk
// store.
func onBothStores(t *testing.T, f func(t *testing.T, fs *FS)) {
	t.Run("mem", func(t *testing.T) { f(t, New()) })
	onDiskStore(t, f)
}

// onDiskStore runs f against a disk store, where Restart is a real
// crash and replay.
func onDiskStore(t *testing.T, f func(t *testing.T, fs *FS)) {
	t.Run("disk", func(t *testing.T) {
		fs, ds := newDiskFS(t, t.TempDir(), diskstore.Options{})
		defer ds.Close()
		f(t, fs)
	})
}

func TestVerifierAndRestart(t *testing.T) {
	onDiskStore(t, func(t *testing.T, fs *FS) {
		v1 := fs.Verifier()
		id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
		if _, err := fs.Write(root, id, 0, []byte("stable"), true); err != nil {
			t.Fatal(err)
		}
		// The write verifier changes across a restart, so clients
		// retransmit an unstable overwrite that was never committed —
		// which the crash has discarded.
		if _, err := fs.Write(root, id, 0, []byte("VOLATILE--"), false); err != nil {
			t.Fatal(err)
		}
		crashBuffered(t, fs)
		if fs.Verifier() == v1 {
			t.Fatal("verifier unchanged across restart")
		}
		data, _, err := fs.Read(root, id, 0, 100)
		if err != nil || string(data) != "stable" {
			t.Fatalf("post-restart data %q err=%v, want %q", data, err, "stable")
		}
	})
}

func TestCommitSurvivesRestart(t *testing.T) {
	onDiskStore(t, func(t *testing.T, fs *FS) {
		id, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
		if _, err := fs.Write(root, id, 0, []byte("durable"), false); err != nil {
			t.Fatal(err)
		}
		if err := fs.Commit(id); err != nil {
			t.Fatal(err)
		}
		restartT(t, fs)
		data, _, err := fs.Read(root, id, 0, 100)
		if err != nil || string(data) != "durable" {
			t.Fatalf("committed data lost across restart: %q err=%v", data, err)
		}
	})
}

// TestRestartNeedsACrashableStore: the in-memory store cannot crash
// apart from its process, so Restart refuses it and leaves the
// verifier alone.
func TestRestartNeedsACrashableStore(t *testing.T) {
	fs := New()
	v := fs.Verifier()
	if err := fs.Restart(); err == nil {
		t.Fatal("Restart on the in-memory store returned nil")
	}
	if fs.Verifier() != v {
		t.Fatal("a refused Restart changed the verifier")
	}
}

// NumNodes reports the number of live nodes.
func (fs *FS) NumNodes() int {
	total := 0
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.RLock()
		total += len(sh.nodes)
		sh.mu.RUnlock()
	}
	return total
}
