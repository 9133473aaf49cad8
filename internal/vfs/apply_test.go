package vfs

// Tests that hold "the tree changes in one place": three bugs the
// hand-written second copy let through, a differential test of the
// live tree against its own replay on every store, and a fuzz target
// for replay of records no live operation would have written.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
)

// dumpTree renders every node of fs — attributes, all three times,
// link count, parent, symlink target, entries with their cookies,
// content checksum — and the id/cookie watermarks, by walking the
// shard maps (never following an entry, so a malformed tree dumps
// too). Two file systems in the same state dump identically.
func dumpTree(fs *FS) string {
	var ns []*node
	for i := range fs.shards {
		for _, n := range fs.shards[i].nodes {
			ns = append(ns, n)
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].id < ns[j].id })
	var b strings.Builder
	fmt.Fprintf(&b, "nextID=%d nextCookie=%d\n", fs.nextID.Load(), fs.nextCookie.Load())
	for _, n := range ns {
		a := attrOf(n)
		fmt.Fprintf(&b, "%d type=%d mode=%o uid=%d gid=%d size=%d nlink=%d at=%d mt=%d ct=%d parent=%d target=%q dead=%v",
			n.id, a.Type, a.Mode, a.UID, a.GID, a.Size, a.Nlink,
			a.Atime.UnixNano(), a.Mtime.UnixNano(), a.Ctime.UnixNano(), n.parent, n.target, n.dead)
		if a.Type == TypeReg && a.Size > 0 && fs.store != nil { // like Read, never ask a store for an empty extent
			p := make([]byte, a.Size)
			if err := fs.store.ReadAt(uint64(n.id), 0, p); err != nil {
				fmt.Fprintf(&b, " content-err=%v", err)
			}
			fmt.Fprintf(&b, " crc=%08x", crc32.ChecksumIEEE(p))
		}
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, " %q→%d@%d", name, n.children[name].id, n.children[name].cookie)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRenameIntoOwnSubtree(t *testing.T) {
	onBothStores(t, func(t *testing.T, fs *FS) {
		a, _, _ := fs.Mkdir(root, fs.Root(), "a", 0o755)
		b, _, _ := fs.Mkdir(root, a, "b", 0o755)
		other, _, _ := fs.Mkdir(root, fs.Root(), "other", 0o755)
		before := dumpTree(fs)
		for _, to := range []struct {
			dir  FileID
			name string
		}{{b, "c"}, {a, "self"}} {
			if err := fs.Rename(root, fs.Root(), "a", to.dir, to.name); !errors.Is(err, ErrInval) {
				t.Fatalf("rename a → %d/%s: err = %v, want ErrInval", to.dir, to.name, err)
			}
		}
		if after := dumpTree(fs); after != before {
			t.Fatalf("refused rename changed the tree:\n%s\nwas:\n%s", after, before)
		}
		if id, _, err := fs.Lookup(root, fs.Root(), "a"); err != nil || id != a {
			t.Fatalf("a unreachable from the root: id=%d err=%v", id, err)
		}
		// Moves that do not close a cycle still work, including out of
		// and back into a sibling subtree.
		if err := fs.Rename(root, a, "b", other, "b"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(root, fs.Root(), "a", b, "a"); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(root, fs.Root(), "other", a, "x"); !errors.Is(err, ErrInval) {
			t.Fatalf("rename other → other/b/a/x: err = %v, want ErrInval", err)
		}
	})
}

func TestRenameDirectoryOverFile(t *testing.T) {
	onBothStores(t, func(t *testing.T, fs *FS) {
		fs.Mkdir(root, fs.Root(), "d", 0o755)
		f, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
		before := dumpTree(fs)
		if err := fs.Rename(root, fs.Root(), "d", fs.Root(), "f"); !errors.Is(err, ErrNotDir) {
			t.Fatalf("rename directory over file: err = %v, want ErrNotDir", err)
		}
		if err := fs.Rename(root, fs.Root(), "f", fs.Root(), "d"); !errors.Is(err, ErrIsDir) {
			t.Fatalf("rename file over directory: err = %v, want ErrIsDir", err)
		}
		if after := dumpTree(fs); after != before {
			t.Fatalf("refused rename changed the tree:\n%s\nwas:\n%s", after, before)
		}
		if _, err := fs.GetAttr(f); err != nil {
			t.Fatalf("file replaced by a directory: %v", err)
		}
	})
}

// failTruncate is the capturing store with a Truncate that fails.
type failTruncate struct{ captureStore }

func (f *failTruncate) Truncate(id, size uint64) error { return errors.New("disk on fire") }

// TestSetAttrsAllOrNothing: a SetAttrs that fails on any field leaves
// every attribute as it was and journals nothing.
func TestSetAttrsAllOrNothing(t *testing.T) {
	mode, uid, size := uint32(0o700), uint32(42), uint64(3)
	mtime := time.Unix(946000000, 0)
	sa := SetAttr{Mode: &mode, UID: &uid, Size: &size, Mtime: &mtime}

	t.Run("size on a directory", func(t *testing.T) {
		cs := &captureStore{Store: memstore.New()}
		fs, _ := NewWithStore(cs)
		d, _, _ := fs.Mkdir(root, fs.Root(), "d", 0o755)
		before, journaled := dumpTree(fs), len(cs.recs)
		if _, err := fs.SetAttrs(root, d, sa); !errors.Is(err, ErrIsDir) {
			t.Fatalf("err = %v, want ErrIsDir", err)
		}
		if after := dumpTree(fs); after != before || len(cs.recs) != journaled {
			t.Fatalf("refused SetAttrs changed the tree or journaled (%d records):\n%s\nwas:\n%s",
				len(cs.recs)-journaled, after, before)
		}
	})
	t.Run("truncate fails", func(t *testing.T) {
		cs := &failTruncate{captureStore{Store: memstore.New()}}
		fs, _ := NewWithStore(cs)
		f, _, _ := fs.Create(root, fs.Root(), "f", 0o644, true)
		before, journaled := dumpTree(fs), len(cs.recs)
		if _, err := fs.SetAttrs(root, f, sa); !errors.Is(err, ErrIO) {
			t.Fatalf("err = %v, want ErrIO", err)
		}
		if _, _, err := fs.Create(root, fs.Root(), "f", 0o644, false); !errors.Is(err, ErrIO) {
			t.Fatalf("truncating create: err = %v, want ErrIO", err)
		}
		if after := dumpTree(fs); after != before || len(cs.recs) != journaled {
			t.Fatalf("failed SetAttrs changed the tree or journaled (%d records):\n%s\nwas:\n%s",
				len(cs.recs)-journaled, after, before)
		}
	})
}

// TestStressCrossingDirectoryRenames races a → b/a against b → a/b
// (and back): whichever wins, the loser would close a cycle and must
// be refused. The assertions are loose; the race detector and the
// absence of a deadlock are the test.
func TestStressCrossingDirectoryRenames(t *testing.T) {
	fs := New()
	a, _, _ := fs.Mkdir(root, fs.Root(), "a", 0o755)
	b, _, _ := fs.Mkdir(root, fs.Root(), "b", 0o755)
	var wg sync.WaitGroup
	for _, mv := range []struct {
		name string
		into FileID
	}{{"a", b}, {"b", a}} {
		mv := mv
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				err := fs.Rename(root, fs.Root(), mv.name, mv.into, mv.name)
				if err == nil {
					err = fs.Rename(root, mv.into, mv.name, fs.Root(), mv.name)
				}
				if err != nil && !errors.Is(err, ErrInval) && !errors.Is(err, ErrNotFound) {
					t.Errorf("rename %s: %v", mv.name, err)
					return
				}
			}
		}()
	}
	// Same-parent directory renames and lookups of ".." run beside them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, _, _ := fs.Mkdir(root, a, "c", 0o755)
		for i := 0; i < 400; i++ {
			fs.Rename(root, a, "c", a, "c2")
			fs.Rename(root, a, "c2", a, "c")
			fs.Lookup(root, c, "..")
		}
	}()
	wg.Wait()
	for _, id := range []FileID{a, b} {
		// Both directories are still reachable: walking up ends at the root.
		for hops := 0; id != fs.Root(); hops++ {
			if hops > 4 {
				t.Fatal("parent chain does not reach the root")
			}
			up, _, err := fs.Lookup(root, id, "..")
			if err != nil {
				t.Fatal(err)
			}
			id = up
		}
	}
}

// randomOps drives n seeded random operations at fs, returning one line
// per operation with its error. Names and targets come from small
// pools so entries collide, get replaced and get removed; the ids the
// generator reuses are the ones fs returned, so two file systems that
// behave alike see the same sequence. mid runs after operation n/2.
func randomOps(fs *FS, seed int64, n int, mid func()) string {
	rng := rand.New(rand.NewSource(seed))
	creds := []Cred{root, root, alice, bob}
	names := []string{"a", "b", "c", "d", "e"}
	dirs := []FileID{fs.Root()}
	files := []FileID{}
	pick := func(ids []FileID) FileID { return ids[rng.Intn(len(ids))] }
	name := func() string { return names[rng.Intn(len(names))] }
	var trace strings.Builder
	// Pin the root's times, which initTree took from the wall clock.
	t0 := time.Unix(946684800, 0)
	fs.SetAttrs(root, fs.Root(), SetAttr{Atime: &t0, Mtime: &t0})
	world := uint32(0o777)
	fs.SetAttrs(root, fs.Root(), SetAttr{Mode: &world})
	for i := 0; i < n; i++ {
		if i == n/2 && mid != nil {
			mid()
		}
		cred := creds[rng.Intn(len(creds))]
		var err error
		var id FileID
		switch op := rng.Intn(12); op {
		case 0:
			if id, _, err = fs.Mkdir(cred, pick(dirs), name(), 0o777); err == nil {
				dirs = append(dirs, id)
			}
		case 1, 2:
			if id, _, err = fs.Create(cred, pick(dirs), name(), 0o666, rng.Intn(2) == 0); err == nil {
				files = append(files, id)
			}
		case 3:
			id, _, err = fs.Symlink(cred, pick(dirs), name(), "../"+name())
		case 4:
			if len(files) > 0 {
				err = fs.Link(cred, pick(files), pick(dirs), name())
			}
		case 5:
			err = fs.Remove(cred, pick(dirs), name())
		case 6:
			err = fs.Rmdir(cred, pick(dirs), name())
		case 7, 8:
			err = fs.Rename(cred, pick(dirs), name(), pick(dirs), name())
		case 9:
			var sa SetAttr
			mode, uid, size := uint32(rng.Intn(0o10000)), uint32(1000+rng.Intn(2)), uint64(rng.Intn(20000))
			at := time.Unix(946684800+int64(rng.Intn(1000)), int64(rng.Intn(1000)))
			for _, set := range []func(){
				func() { sa.Mode = &mode }, func() { sa.UID = &uid }, func() { sa.GID = &uid },
				func() { sa.Size = &size }, func() { sa.Mtime = &at }, func() { sa.Atime = &at },
			} {
				if rng.Intn(3) == 0 {
					set()
				}
			}
			_, err = fs.SetAttrs(cred, pick(append(files, dirs...)), sa)
		default:
			if len(files) > 0 {
				data := make([]byte, 1+rng.Intn(300))
				rng.Read(data)
				id = pick(files)
				if _, err = fs.Write(cred, id, uint64(rng.Intn(10000)), data, rng.Intn(3) == 0); err == nil && rng.Intn(2) == 0 {
					err = fs.Commit(id)
				}
			}
		}
		fmt.Fprintf(&trace, "%d: id=%d err=%v\n", i, id, err)
	}
	return trace.String()
}

// TestDifferentialLiveVersusReplay: the same random operation sequence
// on the in-memory store, on a disk store, and on a disk store
// checkpointed mid-sequence gives the same results and the same tree,
// and each disk store reopened — one from its journal alone, one from
// its image plus the journal's tail — gives that tree again. A seed
// that ever fails is one more line in the table.
func TestDifferentialLiveVersusReplay(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 1999, 2026} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			const nOps = 250
			mem := New()
			mem.clock = tickClock()
			wantTrace := randomOps(mem, seed, nOps, nil)
			want := dumpTree(mem)
			if !strings.Contains(wantTrace, "err=<nil>") {
				t.Fatal("no operation succeeded")
			}
			for _, checkpoint := range []bool{false, true} {
				dir := t.TempDir()
				ds, err := diskstore.Open(dir, diskstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				fs, err := NewWithStore(ds)
				if err != nil {
					t.Fatal(err)
				}
				fs.clock = tickClock()
				var mid func()
				if checkpoint {
					mid = func() {
						if _, err := fs.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if trace := randomOps(fs, seed, nOps, mid); trace != wantTrace {
					t.Fatalf("disk store (checkpoint=%v) answered differently:\n%s\nmemory store:\n%s", checkpoint, trace, wantTrace)
				}
				if got := dumpTree(fs); got != want {
					t.Fatalf("disk store (checkpoint=%v) live tree:\n%s\nmemory store:\n%s", checkpoint, got, want)
				}
				if err := ds.Close(); err != nil {
					t.Fatal(err)
				}
				ds, err = diskstore.Open(dir, diskstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer ds.Close()
				fs, err = NewWithStore(ds)
				if err != nil {
					t.Fatal(err)
				}
				if rs := fs.LastReplay(); (rs.CheckpointRecords > 0) != checkpoint || rs.TailRecords == 0 && rs.Records == 0 {
					t.Fatalf("checkpoint=%v but replay was %+v", checkpoint, rs)
				}
				if got := dumpTree(fs); got != want {
					t.Fatalf("reopened (checkpoint=%v) tree:\n%s\nlive tree:\n%s", checkpoint, got, want)
				}
			}
		})
	}
}

// encodeRecords frames journal payloads the way FuzzApplyRecord reads
// them: a little-endian u16 length, then the payload.
func encodeRecords(recs ...storage.Record) []byte {
	var out []byte
	for _, r := range recs {
		var p []byte
		switch {
		case r.Meta != nil:
			p = make([]byte, storage.MetaLen(r.Meta))
			storage.PutMeta(p, r.Meta)
		case r.Data != nil:
			p = make([]byte, storage.DataLen(int(r.Data.Len)))
			storage.PutData(p, r.Data, make([]byte, r.Data.Len))
		case r.Node != nil:
			p = make([]byte, storage.NodeLen(r.Node))
			storage.PutNode(p, r.Node)
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(p)))
		out = append(out, p...)
	}
	return out
}

// applyRecordSeeds are FuzzApplyRecord's starting points, also
// committed under testdata/fuzz/FuzzApplyRecord by name.
func applyRecordSeeds() map[string][]byte {
	meta := func(m storage.MetaRecord) storage.Record { return storage.Record{Meta: &m} }
	mkdir := func(dir, id uint64, name string) storage.Record {
		return meta(storage.MetaRecord{Op: storage.OpMkdir, Time: 1, Dir: dir, Name: name, ID: id, Cookie: id, Mode: 0o755})
	}
	create := func(dir, id uint64, name string) storage.Record {
		return meta(storage.MetaRecord{Op: storage.OpCreate, Time: 2, Dir: dir, Name: name, ID: id, Cookie: id, Mode: 0o644})
	}
	dirNode := func(id, parent uint64, nlink uint32, ents ...storage.DirEntRecord) storage.Record {
		return storage.Record{Node: &storage.NodeRecord{ID: id, Type: uint8(TypeDir), Mode: 0o755, Nlink: nlink, Parent: parent, Ents: ents}}
	}
	return map[string][]byte{
		// A plausible journal touching every record kind.
		"journal": encodeRecords(
			mkdir(1, 2, "d"), create(2, 3, "f"),
			storage.Record{Data: &storage.DataRecord{ID: 3, Off: 10, Len: 5, Time: 3}},
			meta(storage.MetaRecord{Op: storage.OpSymlink, Time: 4, Dir: 1, Name: "ln", ID: 4, Cookie: 4, Mode: 0o777, Target: "d/f"}),
			meta(storage.MetaRecord{Op: storage.OpLink, Time: 5, Dir: 1, Name: "hard", ID: 3, Cookie: 5}),
			meta(storage.MetaRecord{Op: storage.OpSetAttr, Time: 6, ID: 3, SetMask: 0x3f, Mode: 0o600, UID: 7, GID: 8, Size: 2, Mtime: 9, Atime: 10}),
			meta(storage.MetaRecord{Op: storage.OpRename, Time: 7, Dir: 2, Name: "f", ToDir: 1, ToName: "ln", ToCookie: 6}),
			meta(storage.MetaRecord{Op: storage.OpRemove, Time: 8, Dir: 1, Name: "hard"}),
			meta(storage.MetaRecord{Op: storage.OpRmdir, Time: 9, Dir: 1, Name: "d"}),
		),
		// Unknown ids, in every position a record can name one.
		"unknown-ids": encodeRecords(
			create(99, 2, "f"),
			storage.Record{Data: &storage.DataRecord{ID: 98, Len: 1}},
			meta(storage.MetaRecord{Op: storage.OpLink, Dir: 1, Name: "l", ID: 97}),
			meta(storage.MetaRecord{Op: storage.OpSetAttr, ID: 96, SetMask: 1}),
			meta(storage.MetaRecord{Op: storage.OpRename, Dir: 1, Name: "x", ToDir: 95, ToName: "y"}),
		),
		// An image whose entries name nodes it does not hold.
		"entries-name-missing-nodes": encodeRecords(
			dirNode(1, 1, 2, storage.DirEntRecord{Name: "ghost", ID: 50, Cookie: 1}, storage.DirEntRecord{Name: "d", ID: 2, Cookie: 2}),
			dirNode(2, 1, 2, storage.DirEntRecord{Name: "ghost2", ID: 51, Cookie: 3}),
			meta(storage.MetaRecord{Op: storage.OpRemove, Dir: 1, Name: "ghost"}),
			meta(storage.MetaRecord{Op: storage.OpRmdir, Dir: 1, Name: "ghost"}),
			meta(storage.MetaRecord{Op: storage.OpRename, Dir: 1, Name: "d", ToDir: 2, ToName: "ghost2"}),
		),
		// A rename whose victim is its own destination directory, and one
		// that moves a directory under itself.
		"victim-is-own-directory": encodeRecords(
			dirNode(1, 1, 3, storage.DirEntRecord{Name: "d", ID: 2, Cookie: 1}),
			dirNode(2, 1, 2, storage.DirEntRecord{Name: "me", ID: 2, Cookie: 2}, storage.DirEntRecord{Name: "up", ID: 1, Cookie: 3}),
			create(1, 3, "f"),
			meta(storage.MetaRecord{Op: storage.OpRename, Dir: 1, Name: "f", ToDir: 2, ToName: "me", ToCookie: 4}),
			meta(storage.MetaRecord{Op: storage.OpRename, Dir: 1, Name: "d", ToDir: 2, ToName: "up", ToCookie: 5}),
			meta(storage.MetaRecord{Op: storage.OpRename, Dir: 1, Name: "d", ToDir: 2, ToName: "in", ToCookie: 6}),
		),
		// Link counts already at zero.
		"nlink-already-zero": encodeRecords(
			dirNode(1, 1, 0, storage.DirEntRecord{Name: "f", ID: 2, Cookie: 1}, storage.DirEntRecord{Name: "d", ID: 3, Cookie: 2}),
			storage.Record{Node: &storage.NodeRecord{ID: 2, Type: uint8(TypeReg)}},
			dirNode(3, 1, 0),
			meta(storage.MetaRecord{Op: storage.OpRemove, Dir: 1, Name: "f"}),
			meta(storage.MetaRecord{Op: storage.OpRmdir, Dir: 1, Name: "d"}),
		),
	}
}

// FuzzApplyRecord feeds replay record sequences no live operation
// wrote. A record naming a node the tree does not hold is refused and
// changes nothing; anything else yields some tree; nothing panics or
// spins, and what is left can be walked by a checkpoint.
func FuzzApplyRecord(f *testing.F) {
	for _, in := range applyRecordSeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		fs := &FS{clock: time.Now}
		fs.initTree()
		for len(in) >= 2 {
			n := int(binary.LittleEndian.Uint16(in))
			if in = in[2:]; n > len(in) {
				break
			}
			rec, _, err := storage.DecodeRecord(in[:n])
			in = in[n:]
			if err != nil {
				continue
			}
			before := dumpTree(fs)
			if err := fs.applyRecord(rec); err != nil && dumpTree(fs) != before {
				t.Fatalf("refused record (%v) changed the tree", err)
			}
		}
		if err := fs.snapshotNodes(func(*storage.NodeRecord) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
}
