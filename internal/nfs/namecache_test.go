package nfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/vfs"
)

func TestNameCacheServesWarmWalks(t *testing.T) {
	_, _, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	d, _, err := cl.Mkdir(root, "dir", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Create(d, "f", 0o644, true); err != nil {
		t.Fatal(err)
	}
	// Warm the path.
	if _, _, err := cl.Lookup(root, "dir"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Lookup(d, "f"); err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Calls
	for i := 0; i < 10; i++ {
		dd, _, err := cl.Lookup(root, "dir")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Lookup(dd, "f"); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Stats().Calls - before; got != 0 {
		t.Fatalf("warm walk sent %d RPCs over the wire", got)
	}
}

func TestNameCacheInvalidatedByOwnMutation(t *testing.T) {
	_, _, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	_ = fh
	if _, _, err := cl.Lookup(root, "f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove(root, "f"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Lookup(root, "f"); err == nil {
		t.Fatal("stale name entry served after Remove")
	}
}

func TestNameCacheInvalidatedByCallback(t *testing.T) {
	fsys := vfs.New()
	srv := NewServer(fsys, sfsServerConfig())
	mk := func() *Client {
		a, b := net.Pipe()
		srv.ServeConn(b)
		cl := Dial(a, ClientConfig{UseLeases: true, AccessCache: true, Auth: rootAuth})
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	cl1, cl2 := mk(), mk()
	root1, _, _ := cl1.MountRoot()
	root2, _, _ := cl2.MountRoot()
	cl1.Create(root1, "old", 0o644, true) //nolint:errcheck
	// Client 2 warms its name cache.
	if _, _, err := cl2.Lookup(root2, "old"); err != nil {
		t.Fatal(err)
	}
	// Client 1 renames; client 2 should get a directory callback
	// and stop serving the stale name.
	if err := cl1.Rename(root1, "old", root1, "new"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, err := cl2.Lookup(root2, "old"); err != nil {
			break // stale entry gone, server says ENOENT
		}
		if time.Now().After(deadline) {
			t.Fatal("stale name served after rename callback")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNoNameCacheWithoutLeases(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	cl.Create(root, "f", 0o644, true) //nolint:errcheck
	cl.Lookup(root, "f")              //nolint:errcheck
	before := cl.Stats().Calls
	for i := 0; i < 5; i++ {
		cl.Lookup(root, "f") //nolint:errcheck
	}
	if got := cl.Stats().Calls - before; got != 5 {
		t.Fatalf("plain NFS mode cached lookups: %d wire calls, want 5", got)
	}
}

var rootCred = vfs.Cred{UID: 0, GIDs: []uint32{0}}

// listAll pages through dir the way client.ReadDir does.
func listAll(t *testing.T, cl *Client, dir FH) []Entry {
	t.Helper()
	var ents []Entry
	for cookie, eof := uint64(0), false; !eof; cookie = ents[len(ents)-1].Cookie {
		page, end, err := cl.ReadDir(dir, cookie, 256)
		if err != nil || len(page) == 0 {
			t.Fatalf("readdir: %v (%d entries)", err, len(page))
		}
		ents, eof = append(ents, page...), end
	}
	return ents
}

// lookups is how many LOOKUPs the server has answered.
func lookups(srv *Server) uint64 { return srv.StatsSnapshot().Procs["lookup"].Calls }

// TestRepliesFeedNameCache: every reply that carries a handle binds its
// name, so the LOOKUP that follows never leaves the client — in lease
// mode. Without leases nothing is bound and each Lookup is one LOOKUP,
// as it always was. The flows return how many Lookups they made.
func TestRepliesFeedNameCache(t *testing.T) {
	mustLookup := func(t *testing.T, cl *Client, dir FH, name string, want FH) Fattr {
		t.Helper()
		fh, attr, err := cl.Lookup(dir, name)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		if want != nil && !bytes.Equal(fh, want) {
			t.Fatalf("lookup %q resolved to another handle", name)
		}
		return attr
	}
	flows := []struct {
		name string
		run  func(t *testing.T, fsys *vfs.FS, cl *Client, root FH) uint64
	}{
		{"create-stat", func(t *testing.T, _ *vfs.FS, cl *Client, root FH) uint64 {
			fh, _, err := cl.Create(root, "f", 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			mustLookup(t, cl, root, "f", fh)
			if _, err := cl.GetAttr(fh); err != nil {
				t.Fatal(err)
			}
			return 1
		}},
		{"mkdir-walk", func(t *testing.T, _ *vfs.FS, cl *Client, root FH) uint64 {
			d, _, err := cl.Mkdir(root, "d", 0o755)
			if err != nil {
				t.Fatal(err)
			}
			fh, _, err := cl.Create(d, "f", 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			mustLookup(t, cl, root, "d", d)
			mustLookup(t, cl, d, "f", fh)
			return 2
		}},
		{"symlink-lstat", func(t *testing.T, _ *vfs.FS, cl *Client, root FH) uint64 {
			fh, _, err := cl.Symlink(root, "l", "target")
			if err != nil {
				t.Fatal(err)
			}
			if a := mustLookup(t, cl, root, "l", fh); a.Type != TypeSymlink {
				t.Fatalf("lstat type %d", a.Type)
			}
			return 1
		}},
		{"readdir-stat-every-entry", func(t *testing.T, fsys *vfs.FS, cl *Client, root FH) uint64 {
			// Made behind the client's back: the listing is all it knows.
			const n = 300 // more than one READDIR page
			for i := 0; i < n; i++ {
				if _, _, err := fsys.Create(rootCred, fsys.Root(), fmt.Sprintf("e%03d", i), 0o644, true); err != nil {
					t.Fatal(err)
				}
			}
			ents := listAll(t, cl, root)
			if len(ents) != n {
				t.Fatalf("listed %d entries, want %d", len(ents), n)
			}
			for _, e := range ents {
				mustLookup(t, cl, root, e.Name, e.FH)
			}
			return n
		}},
		{"rename-stat-new-name", func(t *testing.T, _ *vfs.FS, cl *Client, root FH) uint64 {
			d, _, err := cl.Mkdir(root, "d", 0o755)
			if err != nil {
				t.Fatal(err)
			}
			fh, _, err := cl.Create(root, "a", 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Rename(root, "a", d, "b"); err != nil {
				t.Fatal(err)
			}
			mustLookup(t, cl, d, "b", fh)
			return 1
		}},
	}
	modes := []struct {
		name   string
		srv    ServerConfig
		cl     ClientConfig
		leases bool
	}{
		{"leases", sfsServerConfig(), sfsClientConfig(), true},
		{"plain", ServerConfig{}, ClientConfig{}, false},
	}
	for _, m := range modes {
		for _, f := range flows {
			t.Run(m.name+"/"+f.name, func(t *testing.T) {
				fsys, srv, cl := newPair(t, m.srv, m.cl)
				root, _, err := cl.MountRoot()
				if err != nil {
					t.Fatal(err)
				}
				made := f.run(t, fsys, cl, root)
				want := made
				if m.leases {
					want = 0
				}
				if got := lookups(srv); got != want {
					t.Fatalf("%d Lookups sent %d LOOKUPs, want %d", made, got, want)
				}
				if st := cl.Stats(); m.leases && (st.NameHits != made || st.NameInstalls < made) {
					t.Fatalf("NameHits %d NameInstalls %d, want %d and at least %d", st.NameHits, st.NameInstalls, made, made)
				} else if !m.leases && (st.NameHits != 0 || st.NameInstalls != 0 || st.Records != 0) {
					t.Fatalf("plain mode cached: %+v", st)
				}
			})
		}
	}
}

// TestRetiredNamesGoToTheWire: the old name of a rename and a removed
// name are unbound by the reply that retired them — the next Lookup
// asks the server, and fails.
func TestRetiredNamesGoToTheWire(t *testing.T) {
	_, srv, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	for _, name := range []string{"a", "gone"} {
		if _, _, err := cl.Create(root, name, 0o644, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Rename(root, "a", root, "b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove(root, "gone"); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "gone"} {
		if _, _, err := cl.Lookup(root, name); err == nil {
			t.Fatalf("retired name %q still resolves", name)
		}
		if got := lookups(srv); got != uint64(i+1) {
			t.Fatalf("Lookup of retired name %q: %d LOOKUPs so far, want %d", name, got, i+1)
		}
	}
}

// TestRemoveOneLinkRefreshesSurvivor: REMOVE changes the nlink and
// ctime of a file that has another name, and the server's callbacks
// skip the session that did it — the remover must drop the attributes
// itself, which it can because the name cache knows the handle.
func TestRemoveOneLinkRefreshesSurvivor(t *testing.T) {
	_, _, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Create(root, "a", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Link(fh, root, "b"); err != nil {
		t.Fatal(err)
	}
	if a, err := cl.GetAttr(fh); err != nil || a.Nlink != 2 {
		t.Fatalf("after link: nlink %d, err %v", a.Nlink, err)
	}
	if err := cl.Remove(root, "a"); err != nil {
		t.Fatal(err)
	}
	if a, err := cl.GetAttr(fh); err != nil || a.Nlink != 1 {
		t.Fatalf("survivor's cached nlink %d after its other name was removed (err %v)", a.Nlink, err)
	}
	if got, a, err := cl.Lookup(root, "b"); err != nil || !bytes.Equal(got, fh) || a.Nlink != 1 {
		t.Fatalf("lookup of surviving name: nlink %d, err %v", a.Nlink, err)
	}
}

// TestOvertakenReplyInstallsNothing: the read loop hands a reply to its
// caller and then dispatches the directory's invalidation callback; if
// the callback's forget runs before the caller folds the reply in, the
// reply is older than the invalidation and must not bind its name.
func TestOvertakenReplyInstallsNothing(t *testing.T) {
	fsys, srv, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	id, _, err := fsys.Create(rootCred, fsys.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	fh, grant := srv.codec.Encode(id), &Fattr{Type: TypeReg, LeaseMS: 60000}
	core := cl.core

	epoch := core.invalEpoch.Load() // the call is issued ...
	core.forget(root)               // ... and the callback overtakes its reply
	fresh, now := core.lockSince(epoch)
	n := cl.bindLocked(root, "f", fh, grant, fresh, now)
	core.mu.Unlock()
	if fresh || n != 0 {
		t.Fatalf("reply older than an invalidation installed %d name(s) (fresh=%v)", n, fresh)
	}
	before := lookups(srv)
	if _, _, err := cl.Lookup(root, "f"); err != nil {
		t.Fatal(err)
	}
	if lookups(srv) != before+1 {
		t.Fatal("name served from a reply an invalidation had overtaken")
	}

	// The same reply with nothing in between does bind.
	core.forget(root)
	fresh, now = core.lockSince(core.invalEpoch.Load())
	n = cl.bindLocked(root, "f", fh, grant, fresh, now)
	core.mu.Unlock()
	if !fresh || n != 1 {
		t.Fatalf("undisturbed reply installed %d name(s) (fresh=%v)", n, fresh)
	}
}

// TestRenameLeavesExpiredNameBehind: a binding past its lease may be
// wrong — whoever changed the directory since owed this client no
// callback — and Rename resolves no name before it moves one. Moving
// such a binding would serve the wrong handle under the fresh lease the
// RENAME reply grants.
func TestRenameLeavesExpiredNameBehind(t *testing.T) {
	fsys, srv, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	fh1, _, err := cl.Create(root, "x", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	// The directory's lease runs out (the file's is kept alive, as an
	// open handle would) ...
	core := cl.core
	core.mu.Lock()
	d := core.recs[string(root)]
	d.expires = time.Now().Add(-time.Second)
	d.names["x"] = nameEntry{fh: fh1, expires: d.expires}
	core.mu.Unlock()
	// ... so nobody tells us that x now names another file.
	if err := fsys.Rename(rootCred, fsys.Root(), "x", fsys.Root(), "y"); err != nil {
		t.Fatal(err)
	}
	id2, _, err := fsys.Create(rootCred, fsys.Root(), "x", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Rename(root, "x", root, "z"); err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.Lookup(root, "z")
	if want := srv.codec.Encode(id2); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Lookup(z) after renaming an expired binding: handle %x, server has %x (err %v)", got, want, err)
	}
	if st := cl.Stats(); st.Invals != 0 {
		t.Fatalf("%d callbacks: the scenario needs none", st.Invals)
	}
}

// TestClientCacheBounded: what the cache holds is proportional to the
// files that exist, not to the files that ever did; and what only lease
// expiry retires (files another client made and nobody touched again)
// is reclaimed by the sweep once the table has doubled.
func TestClientCacheBounded(t *testing.T) {
	t.Run("own-cycles", func(t *testing.T) {
		_, cl := dataCachePair(t, 0)
		root, _, _ := cl.MountRoot()
		data := make([]byte, 1024)
		const cycles = 20000
		for i := 0; i < cycles; i++ {
			fh, _, err := cl.Create(root, "f", 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Write(fh, 0, data, FileSync); err != nil {
				t.Fatal(err)
			}
			if err := cl.Rename(root, "f", root, "r"); err != nil {
				t.Fatal(err)
			}
			if err := cl.Remove(root, "r"); err != nil {
				t.Fatal(err)
			}
		}
		st, dc := cl.Stats(), cl.core.dc
		if st.Records != 1 || st.DataBytesCached != 0 || len(dc.files) != 0 || len(dc.auth) != 0 || len(dc.ring) != 0 {
			t.Fatalf("after %d create/write/rename/remove cycles: %d records (want 1, the root), %d bytes, %d files, %d auth sets, %d blocks cached",
				cycles, st.Records, st.DataBytesCached, len(dc.files), len(dc.auth), len(dc.ring))
		}
		if st.Forgets != cycles {
			t.Fatalf("%d forgets, want one per removed file (%d)", st.Forgets, cycles)
		}
	})
	t.Run("foreign-expiry", func(t *testing.T) {
		fsys := vfs.New()
		srv := NewServer(fsys, ServerConfig{LeaseMS: 25}) // no callbacks: expiry is all there is
		cl := dataCacheClient(t, srv, 0)
		root, _, _ := cl.MountRoot()
		const foreign = 600
		for i := 0; i < foreign; i++ {
			if _, _, err := fsys.Create(rootCred, fsys.Root(), fmt.Sprintf("x%03d", i), 0o644, true); err != nil {
				t.Fatal(err)
			}
		}
		listAll(t, cl, root)
		if st := cl.Stats(); st.Records < foreign {
			t.Fatalf("%d records after listing %d files", st.Records, foreign)
		}
		time.Sleep(40 * time.Millisecond) // every lease granted so far has run out
		made := 0
		for ; cl.Stats().Swept < foreign && made < 2*foreign; made++ {
			if _, _, err := cl.Create(root, fmt.Sprintf("own%04d", made), 0o644, true); err != nil {
				t.Fatal(err)
			}
		}
		if st := cl.Stats(); st.Swept < foreign || st.Records > uint64(made)+1 {
			t.Fatalf("after %d more files: swept %d (want >= %d), %d records left", made, st.Swept, foreign, st.Records)
		}
	})
}

// TestTwoClientNameCoherence: two clients mutate the same directories
// in a seed-drawn order; after each operation, once its callbacks have
// landed, every name either client would serve from its cache is the
// name the server has.
func TestTwoClientNameCoherence(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { checked += twoClientNameCoherence(t, seed) })
	}
	if checked < 1000 {
		t.Fatalf("only %d cached names were there to check across all seeds", checked)
	}
}

// twoClientNameCoherence returns how many cached names it checked.
func twoClientNameCoherence(t *testing.T, seed int64) (checked int) {
	fsys := vfs.New()
	srv := NewServer(fsys, sfsServerConfig())
	cls := []*Client{dataCacheClient(t, srv, 0), dataCacheClient(t, srv, 0)}
	root, _, _ := cls[0].MountRoot()
	cls[1].MountRoot() //nolint:errcheck
	sub, _, err := cls[0].Mkdir(root, "sub", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []FH{root, sub}
	rng := rand.New(rand.NewSource(seed))
	dir := func() FH { return dirs[rng.Intn(len(dirs))] }
	name := func() string { return fmt.Sprintf("n%d", rng.Intn(5)) }
	for i := 0; i < 300 && !t.Failed(); i++ {
		// Errors are part of the mix: names collide and vanish on purpose.
		cl, op := cls[rng.Intn(2)], ""
		switch rng.Intn(7) {
		case 0, 1:
			op = "create"
			cl.Create(dir(), name(), 0o644, rng.Intn(2) == 0) //nolint:errcheck
		case 2:
			op = "rename"
			cl.Rename(dir(), name(), dir(), name()) //nolint:errcheck
		case 3:
			op = "remove"
			cl.Remove(dir(), name()) //nolint:errcheck
		case 4:
			op = "link"
			if fh, _, err := cl.Lookup(dir(), name()); err == nil {
				cl.Link(fh, dir(), name()) //nolint:errcheck
			}
		case 5:
			op = "readdir"
			cl.ReadDir(dir(), 0, 256) //nolint:errcheck
		case 6:
			op = "lookup"
			cl.Lookup(dir(), name()) //nolint:errcheck
		}
		deadline := time.Now().Add(5 * time.Second)
		for cls[0].Stats().Invals+cls[1].Stats().Invals != srv.StatsSnapshot().Leases.Breaks {
			if time.Now().After(deadline) {
				t.Fatal("callbacks did not drain")
			}
			time.Sleep(50 * time.Microsecond)
		}
		for ci, cl := range cls {
			core, now := cl.core, time.Now()
			core.mu.RLock()
			for dirKey, d := range core.recs {
				dirID, err := srv.codec.Decode(FH(dirKey))
				if err != nil {
					t.Fatal(err)
				}
				for n, e := range d.names {
					if !now.Before(e.expires) || core.live(e.fh, now) == nil {
						continue // Lookup would go to the wire
					}
					checked++
					id, _, err := fsys.Lookup(rootCred, dirID, n)
					if err != nil || !bytes.Equal(srv.codec.Encode(id), e.fh) {
						t.Errorf("after op %d (%s): client %d serves %q in dir %d from cache, but the server says %v (err %v)", i, op, ci, n, dirID, id, err)
					}
				}
			}
			core.mu.RUnlock()
		}
	}
	return checked
}
