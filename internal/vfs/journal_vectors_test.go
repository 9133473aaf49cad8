package vfs

// Journal byte vectors: testdata/journal_vectors.json holds, in order,
// every record a fixed operation script made the file system hand to
// its stores, encoded with storage.PutMeta / storage.PutData. The file
// was generated by commit 3a67bf2 — when each operation still mutated
// the tree by hand and journal replay was a second copy — and must
// never be regenerated from the current code: it is what proves the
// record-applying file system writes the journal the old one wrote.

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
)

// captureStore is the in-memory store with every LogMeta and Write
// call recorded in its journal encoding.
type captureStore struct {
	*memstore.Store
	recs []string
}

func (c *captureStore) LogMeta(r *storage.MetaRecord) error {
	b := make([]byte, storage.MetaLen(r))
	storage.PutMeta(b, r)
	c.recs = append(c.recs, hex.EncodeToString(b))
	return nil
}

func (c *captureStore) Write(id, off uint64, data []byte, stable bool, t int64, clk *stats.StageClock) error {
	b := make([]byte, storage.DataLen(len(data)))
	storage.PutData(b, &storage.DataRecord{ID: id, Off: off, Stable: stable, Time: t}, data)
	c.recs = append(c.recs, hex.EncodeToString(b))
	return c.Store.Write(id, off, data, stable, t, clk)
}

// tickClock returns a clock advancing one second per reading from a
// fixed origin.
func tickClock() func() time.Time {
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	var tick int64
	return func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Second)
	}
}

// journalScript is the fixed operation sequence behind the vectors. It
// is single-threaded, so ids and cookies are allocated in script order.
// Operations expected to fail are part of the contract: they journal
// nothing and consume no id, cookie or clock reading.
func journalScript(t *testing.T, fs *FS) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mk := func(id FileID, _ Attr, err error) FileID {
		t.Helper()
		must(err)
		return id
	}
	fails := func(want, err error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
	}
	u32 := func(v uint32) *uint32 { return &v }
	u64 := func(v uint64) *uint64 { return &v }
	at := func(sec int64) *time.Time { tm := time.Unix(sec, 500); return &tm }
	r := fs.Root()

	// Directories and a world-writable one for alice and bob.
	a := mk(fs.Mkdir(root, r, "a", 0o755))
	b := mk(fs.Mkdir(root, a, "b", 0o750))
	pub := mk(fs.Mkdir(root, r, "pub", 0o777))
	home := mk(fs.Mkdir(alice, pub, "alice", 0o700))
	_, _, err := fs.Mkdir(root, r, "a", 0o700)
	fails(ErrExist, err)
	_, _, err = fs.Mkdir(bob, home, "intruder", 0o755)
	fails(ErrPerm, err)

	// Files, exclusive and not; create-over-existing truncates.
	f1 := mk(fs.Create(root, a, "f1", 0o644, true))
	f2 := mk(fs.Create(alice, home, "notes", 0o600, false))
	f3 := mk(fs.Create(root, b, "f3", 0o7777, true))
	_, _, err = fs.Create(root, a, "f1", 0o600, true)
	fails(ErrExist, err)
	_, err = fs.Write(root, f1, 0, []byte("first contents of f1"), false)
	must(err)
	_, err = fs.Write(root, f1, 100, []byte("sparse tail"), true)
	must(err)
	must(fs.Commit(f1))
	if id := mk(fs.Create(root, a, "f1", 0o600, false)); id != f1 {
		t.Fatalf("create over existing returned id %d, want %d", id, f1)
	}
	_, _, err = fs.Create(root, r, "a", 0o600, false)
	fails(ErrExist, err) // existing name is a directory
	_, err = fs.Write(alice, f2, 0, []byte("alice's notes"), false)
	must(err)
	_, err = fs.Write(bob, f2, 0, []byte("x"), false)
	fails(ErrPerm, err)
	_, err = fs.Write(root, f3, 8192, make([]byte, 3), false)
	must(err)

	// Symlinks.
	s1 := mk(fs.Symlink(root, a, "ln", "../pub/alice/notes"))
	mk(fs.Symlink(alice, home, "self", "."))
	_, _, err = fs.Symlink(root, a, "ln", "elsewhere")
	fails(ErrExist, err)

	// Hard links.
	must(fs.Link(root, f1, r, "f1.hard"))
	must(fs.Link(root, f1, b, "f1.again"))
	must(fs.Link(alice, f2, pub, "notes.pub"))
	must(fs.Link(root, s1, pub, "ln.hard"))
	fails(ErrIsDir, fs.Link(root, a, r, "a.hard"))
	fails(ErrExist, fs.Link(root, f3, r, "f1.hard"))

	// Attributes: each field alone, then combined, then truncation.
	_, err = fs.SetAttrs(root, f1, SetAttr{Mode: u32(0o4755)})
	must(err)
	_, err = fs.SetAttrs(root, f1, SetAttr{UID: u32(1000)})
	must(err)
	_, err = fs.SetAttrs(root, f1, SetAttr{GID: u32(1001)})
	must(err)
	_, err = fs.SetAttrs(alice, f1, SetAttr{Mtime: at(946000000)})
	must(err)
	_, err = fs.SetAttrs(alice, f1, SetAttr{Atime: at(946000001)})
	must(err)
	_, err = fs.SetAttrs(root, f3, SetAttr{Size: u64(4096)})
	must(err)
	_, err = fs.SetAttrs(root, f3, SetAttr{Size: u64(10000), Mtime: at(946000002)})
	must(err)
	_, err = fs.SetAttrs(root, f2, SetAttr{
		Mode: u32(0o640), UID: u32(1001), GID: u32(1000),
		Size: u64(5), Mtime: at(946000003), Atime: at(946000004),
	})
	must(err)
	_, err = fs.SetAttrs(root, b, SetAttr{Mode: u32(0o1777), Atime: at(946000005)})
	must(err)
	_, err = fs.SetAttrs(root, s1, SetAttr{UID: u32(7)})
	must(err)
	_, err = fs.SetAttrs(root, f3, SetAttr{})
	must(err)
	_, err = fs.SetAttrs(bob, f1, SetAttr{Mode: u32(0o777)})
	fails(ErrPerm, err)
	_, err = fs.SetAttrs(alice, f1, SetAttr{UID: u32(1001)})
	fails(ErrPerm, err) // only root gives files away

	// Removes: a link of several, the last link, failures.
	must(fs.Remove(root, b, "f1.again"))
	must(fs.Remove(root, pub, "ln.hard"))
	tmp := mk(fs.Create(root, r, "tmp", 0o644, true))
	_, err = fs.Write(root, tmp, 0, []byte("short-lived"), true)
	must(err)
	must(fs.Remove(root, r, "tmp"))
	fails(ErrNotFound, fs.Remove(root, r, "tmp"))
	fails(ErrIsDir, fs.Remove(root, r, "a"))
	_, err = fs.GetAttr(tmp)
	fails(ErrStale, err)

	// Rmdir.
	mk(fs.Mkdir(root, a, "empty", 0o755))
	must(fs.Rmdir(root, a, "empty"))
	fails(ErrNotEmpty, fs.Rmdir(root, r, "a"))
	fails(ErrNotDir, fs.Rmdir(root, a, "f1"))
	fails(ErrNotFound, fs.Rmdir(root, a, "empty"))

	// Renames: in place, across directories, onto itself, over a file
	// victim (last link and not), over an empty directory, of a
	// directory across parents, and the refusals.
	must(fs.Rename(root, a, "f1", a, "f1.renamed"))
	must(fs.Rename(root, a, "f1.renamed", pub, "f1.moved"))
	must(fs.Rename(root, r, "f1.hard", pub, "f1.moved")) // both names are f1: no-op
	v1 := mk(fs.Create(root, pub, "victim", 0o644, true))
	_, err = fs.Write(root, v1, 0, []byte("overwritten by rename"), false)
	must(err)
	must(fs.Rename(root, b, "f3", pub, "victim")) // victim's last link
	must(fs.Link(root, f3, a, "f3.keep"))
	v2 := mk(fs.Create(root, a, "v2", 0o644, true))
	must(fs.Link(root, v2, r, "v2.hard"))
	must(fs.Rename(root, pub, "victim", a, "v2")) // victim keeps a link
	d1 := mk(fs.Mkdir(root, r, "d1", 0o755))
	mk(fs.Mkdir(root, d1, "sub", 0o755))
	mk(fs.Mkdir(root, pub, "d2", 0o755))
	must(fs.Rename(root, d1, "sub", pub, "d2")) // directory over empty directory
	must(fs.Rename(root, pub, "d2", r, "sub.top"))
	must(fs.Rename(alice, pub, "alice", pub, "alice.renamed"))
	mk(fs.Create(root, d1, "inner", 0o644, true))
	fails(ErrNotEmpty, fs.Rename(root, r, "sub.top", r, "d1"))
	fails(ErrIsDir, fs.Rename(root, a, "v2", r, "d1"))
	fails(ErrNotFound, fs.Rename(root, a, "nope", r, "nope2"))
	fails(ErrPerm, fs.Rename(bob, a, "v2", pub, "stolen"))
	must(fs.Rename(root, a, "ln", d1, "ln"))

	// A last round on the moved nodes, so the record stream ends with
	// every kind once more.
	_, err = fs.Write(root, f3, 4, []byte("after the renames"), true)
	must(err)
	must(fs.Commit(f3))
	_, err = fs.SetAttrs(root, home, SetAttr{Mode: u32(0o755)})
	must(err)
	mk(fs.Create(bob, pub, "bob.txt", 0o664, false))
	mk(fs.Symlink(bob, pub, "bob.ln", "bob.txt"))
	must(fs.Link(bob, f3, pub, "f3.bob"))
	must(fs.Remove(root, r, "v2.hard"))
	must(fs.Remove(root, d1, "inner"))
	must(fs.Rmdir(root, r, "sub.top"))
}

func TestJournalVectors(t *testing.T) {
	raw, err := os.ReadFile("testdata/journal_vectors.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cs := &captureStore{Store: memstore.New()}
	fs, err := NewWithStore(cs)
	if err != nil {
		t.Fatal(err)
	}
	fs.clock = tickClock()
	journalScript(t, fs)

	ops := map[storage.MetaOp]bool{}
	for i, h := range cs.recs {
		if i >= len(want) {
			break
		}
		if h != want[i] {
			t.Fatalf("record %d differs from the parent commit's:\n got %s\nwant %s", i, h, want[i])
		}
		b, _ := hex.DecodeString(h)
		if rec, _, err := storage.DecodeRecord(b); err == nil && rec.Meta != nil {
			ops[rec.Meta.Op] = true
		}
	}
	if len(cs.recs) != len(want) {
		t.Fatalf("script journaled %d records, the parent commit %d", len(cs.recs), len(want))
	}
	for op := storage.OpCreate; op <= storage.OpSetAttr; op++ {
		if !ops[op] {
			t.Errorf("vectors never exercise MetaOp %d", op)
		}
	}
}
