package client_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/nfs"
	"repro/internal/vfs"
)

// world caches one lab deployment across tests in this file; each test
// uses distinct users/files.
func newWorld(t *testing.T, seed string) (*lab.World, *lab.Served, *client.Client) {
	t.Helper()
	w, err := lab.NewWorld(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s, err := w.ServeFS("server.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := w.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		t.Fatal(err)
	}
	return w, s, cl
}

func rootCred() vfs.Cred { return vfs.Cred{UID: 0, GIDs: []uint32{0}} }

func TestEndToEndReadWrite(t *testing.T) {
	w, s, cl := newWorld(t, "e2e")
	if _, err := w.NewUser(cl, s, "alice", 1000, ""); err != nil {
		t.Fatal(err)
	}
	// Server-side: a world-writable playground.
	if _, err := s.FS.MkdirAll(rootCred(), "home/alice", 0o755); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s.FS.Lookup(rootCred(), s.FS.Root(), "home")
	_ = id
	aliceDir, _, err := s.FS.Lookup(rootCred(), id, "alice")
	if err != nil {
		t.Fatal(err)
	}
	uid := uint32(1000)
	if _, err := s.FS.SetAttrs(rootCred(), aliceDir, vfs.SetAttr{UID: &uid}); err != nil {
		t.Fatal(err)
	}

	base := s.Path.String()
	path := base + "/home/alice/notes.txt"
	if err := cl.WriteFile("alice", path, []byte("my notes, secured")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("alice", path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "my notes, secured" {
		t.Fatalf("got %q", got)
	}
	// Attributes carry ownership: the file was created as alice.
	attr, err := cl.Stat("alice", path)
	if err != nil {
		t.Fatal(err)
	}
	if attr.UID != 1000 {
		t.Fatalf("file uid %d, want 1000", attr.UID)
	}
}

func TestAnonymousAccessRestricted(t *testing.T) {
	w, s, cl := newWorld(t, "anon")
	w.NewAnonymousUser(cl, "nobody")
	// Root-owned 0644 file: anonymous can read, not write.
	if err := s.FS.WriteFile(rootCred(), "pub/readme", []byte("public"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := s.Path.String()
	got, err := cl.ReadFile("nobody", base+"/pub/readme")
	if err != nil || string(got) != "public" {
		t.Fatalf("anonymous read: %q %v", got, err)
	}
	if err := cl.WriteFile("nobody", base+"/pub/readme", []byte("defaced")); err == nil {
		t.Fatal("anonymous write succeeded")
	}
	// A 0600 file is unreadable anonymously.
	if err := s.FS.WriteFile(rootCred(), "pub/secret", []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("nobody", base+"/pub/secret"); err == nil {
		t.Fatal("anonymous read of 0600 file succeeded")
	}
}

func TestUnknownUserFallsBackToAnonymous(t *testing.T) {
	w, s, cl := newWorld(t, "fallback")
	// mallory has a key but is not registered with the authserver.
	other, err := lab.NewWorld("fallback-other")
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	_ = other
	a := agent.New("mallory", nil)
	cl.RegisterAgent("mallory", a)
	w.NewAnonymousUser(cl, "unused")
	if err := s.FS.WriteFile(rootCred(), "pub/open", []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("mallory", s.Path.String()+"/pub/open")
	if err != nil || string(got) != "hi" {
		t.Fatalf("fallback read: %q %v", got, err)
	}
}

func TestDynamicAgentLinks(t *testing.T) {
	w, s, cl := newWorld(t, "links")
	a, err := w.NewUser(cl, s, "alice", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FS.WriteFile(rootCred(), "pub/hello", []byte("via link"), 0o644); err != nil {
		t.Fatal(err)
	}
	a.Symlink("work", s.Path.String())
	got, err := cl.ReadFile("alice", "/sfs/work/pub/hello")
	if err != nil || string(got) != "via link" {
		t.Fatalf("through dynamic link: %q %v", got, err)
	}
	// Another user does not see alice's link.
	w.NewAnonymousUser(cl, "bob")
	if _, err := cl.ReadFile("bob", "/sfs/work/pub/hello"); err == nil {
		t.Fatal("bob resolved alice's private link")
	}
}

func TestSecureLinksAcrossServers(t *testing.T) {
	w, s1, cl := newWorld(t, "securelink")
	s2, err := w.ServeFS("other.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	w.NewAnonymousUser(cl, "u")
	if err := s2.FS.WriteFile(rootCred(), "data/file", []byte("on server two"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Server 1 carries a symlink to server 2's self-certifying path.
	if err := s1.FS.SymlinkAt(rootCred(), "links/other", s2.Path.String()+"/data"); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("u", s1.Path.String()+"/links/other/file")
	if err != nil || string(got) != "on server two" {
		t.Fatalf("secure link: %q %v", got, err)
	}
}

func TestCertificationPathResolution(t *testing.T) {
	w, ca, cl := newWorld(t, "certpath")
	target, err := w.ServeFS("target.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	a := w.NewAnonymousUser(cl, "u")
	// The CA serves symlinks: verisign-style certification.
	if err := target.FS.WriteFile(rootCred(), "pub/catalog", []byte("certified data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ca.FS.SymlinkAt(rootCred(), "links/target", target.Path.String()); err != nil {
		t.Fatal(err)
	}
	a.SetCertPaths([]string{ca.Path.String() + "/links"})
	got, err := cl.ReadFile("u", "/sfs/target/pub/catalog")
	if err != nil || string(got) != "certified data" {
		t.Fatalf("certification path: %q %v", got, err)
	}
}

func TestRelativeSymlinksInsideMount(t *testing.T) {
	_, s, cl := newWorld(t, "relative")
	if err := s.FS.WriteFile(rootCred(), "a/real.txt", []byte("content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.SymlinkAt(rootCred(), "a/alias", "real.txt"); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.SymlinkAt(rootCred(), "b/up", "../a/real.txt"); err != nil {
		t.Fatal(err)
	}
	cl.RegisterAgent("relly", agent.New("relly", nil))
	base := s.Path.String()
	got, err := cl.ReadFile("relly", base+"/a/alias")
	if err != nil || string(got) != "content" {
		t.Fatalf("relative symlink: %q %v", got, err)
	}
	got, err = cl.ReadFile("relly", base+"/b/up")
	if err != nil || string(got) != "content" {
		t.Fatalf("dotdot symlink: %q %v", got, err)
	}
}

func TestDirectoryOperations(t *testing.T) {
	w, s, cl := newWorld(t, "dirops")
	if _, err := w.NewUser(cl, s, "root", 0, ""); err != nil {
		t.Fatal(err)
	}
	base := s.Path.String()
	if err := cl.Mkdir("root", base+"/proj", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"a.go", "b.go", "c.go"} {
		if err := cl.WriteFile("root", base+"/proj/"+f, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := cl.ReadDir("root", base+"/proj")
	if err != nil || len(ents) != 3 {
		t.Fatalf("readdir: %d entries, %v", len(ents), err)
	}
	if err := cl.Rename("root", base+"/proj/a.go", base+"/proj/z.go"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("root", base+"/proj/a.go"); err == nil {
		t.Fatal("renamed file still present")
	}
	if err := cl.Remove("root", base+"/proj/z.go"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove("root", base+"/proj/b.go"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove("root", base+"/proj/c.go"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rmdir("root", base+"/proj"); err != nil {
		t.Fatal(err)
	}
}

func TestSelfPathIsPwd(t *testing.T) {
	w, s, cl := newWorld(t, "pwd")
	if _, err := w.NewUser(cl, s, "u", 1000, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.WriteFile(rootCred(), "d/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cl.SelfPath("u", s.Path.String()+"/d")
	if err != nil {
		t.Fatal(err)
	}
	if got != s.Path.String() {
		t.Fatalf("SelfPath = %q, want %q", got, s.Path.String())
	}
	if !strings.HasPrefix(got, "/sfs/server.example.com:") {
		t.Fatalf("SelfPath shape: %q", got)
	}
}

func TestWrongHostIDRefused(t *testing.T) {
	w, s, cl := newWorld(t, "wrongid")
	w.NewAnonymousUser(cl, "u")
	// Build a pathname with the right location but a HostID for a
	// different key: connection must fail, nothing mounted.
	bogus := core.MakePath(s.Location, []byte("not the real key"))
	if _, err := cl.ReadFile("u", bogus.String()+"/anything"); err == nil {
		t.Fatal("client accepted a server whose key does not match the HostID")
	}
}

func TestRevokedPathRefused(t *testing.T) {
	w, s, cl := newWorld(t, "revoked")
	a := w.NewAnonymousUser(cl, "u")
	if err := s.FS.WriteFile(rootCred(), "f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Works before revocation.
	if _, err := cl.ReadFile("u", s.Path.String()+"/f"); err != nil {
		t.Fatal(err)
	}
	cert, err := core.NewRevocation(s.Key, s.Location, w.RNG)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddRevocation(cert); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("u", s.Path.String()+"/f"); !errors.Is(err, agent.ErrRevoked) {
		t.Fatalf("got %v, want agent.ErrRevoked", err)
	}
}

func TestForwardingPointerFollowed(t *testing.T) {
	w, oldS, cl := newWorld(t, "forward")
	newS, err := w.ServeFS("new-home.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	a := w.NewAnonymousUser(cl, "u")
	if err := newS.FS.WriteFile(rootCred(), "d/f", []byte("moved here"), 0o644); err != nil {
		t.Fatal(err)
	}
	fwd, err := core.NewForward(oldS.Key, oldS.Location, newS.Path, w.RNG)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddRevocation(fwd); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("u", oldS.Path.String()+"/d/f")
	if err != nil || string(got) != "moved here" {
		t.Fatalf("forwarded read: %q %v", got, err)
	}
}

func TestServerServesRevocationAtConnect(t *testing.T) {
	w, s, cl := newWorld(t, "srv-revoke")
	w.NewAnonymousUser(cl, "u")
	cert, err := core.NewRevocation(s.Key, s.Location, w.RNG)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Server.AddRevocation(cert); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("u", s.Path.String()+"/f"); err == nil {
		t.Fatal("revoked-at-connect pathname accessible")
	}
}

func TestTwoUsersShareMountSafely(t *testing.T) {
	w, s, cl := newWorld(t, "share")
	if _, err := w.NewUser(cl, s, "alice", 1000, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewUser(cl, s, "bob", 1001, ""); err != nil {
		t.Fatal(err)
	}
	// Alice's private file.
	if err := s.FS.WriteFile(rootCred(), "home/alice/secret", []byte("alice only"), 0o600); err != nil {
		t.Fatal(err)
	}
	id, _, err2 := s.FS.Lookup(rootCred(), s.FS.Root(), "home")
	if err2 != nil {
		t.Fatal(err2)
	}
	ad, _, err2 := s.FS.Lookup(rootCred(), id, "alice")
	if err2 != nil {
		t.Fatal(err2)
	}
	fid, _, err2 := s.FS.Lookup(rootCred(), ad, "secret")
	if err2 != nil {
		t.Fatal(err2)
	}
	uid := uint32(1000)
	if _, err := s.FS.SetAttrs(rootCred(), fid, vfs.SetAttr{UID: &uid}); err != nil {
		t.Fatal(err)
	}
	base := s.Path.String()
	got, err3 := cl.ReadFile("alice", base+"/home/alice/secret")
	if err3 != nil || string(got) != "alice only" {
		t.Fatalf("alice read: %q %v", got, err3)
	}
	// Bob, over the same mount and shared cache, is refused.
	if _, err := cl.ReadFile("bob", base+"/home/alice/secret"); err == nil {
		t.Fatal("bob read alice's 0600 file through the shared mount")
	}
}

func TestListSFSPerUserViews(t *testing.T) {
	w, s, cl := newWorld(t, "listsfs")
	a, err := w.NewUser(cl, s, "alice", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	w.NewAnonymousUser(cl, "bob")
	a.Symlink("myserver", s.Path.String())
	if err := s.FS.WriteFile(rootCred(), "f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("alice", s.Path.String()+"/f"); err != nil {
		t.Fatal(err)
	}
	aliceNames := cl.ListSFS("alice")
	if len(aliceNames) < 2 {
		t.Fatalf("alice sees %v", aliceNames)
	}
	// Bob has accessed nothing: sees nothing, so completion cannot
	// lead him to HostIDs others referenced.
	if names := cl.ListSFS("bob"); len(names) != 0 {
		t.Fatalf("bob sees %v", names)
	}
}

func TestLargeFileChunking(t *testing.T) {
	w, s, cl := newWorld(t, "large")
	if _, err := w.NewUser(cl, s, "root", 0, ""); err != nil {
		t.Fatal(err)
	}
	base := s.Path.String()
	want := bytes.Repeat([]byte("0123456789abcdef"), 16384) // 256 KB
	if err := cl.WriteFile("root", base+"/big.bin", want); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("root", base+"/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("large file corrupted: %d vs %d bytes", len(got), len(want))
	}
	attr, _ := cl.Stat("root", base+"/big.bin")
	if attr.Size != uint64(len(want)) {
		t.Fatalf("size %d", attr.Size)
	}
}

func TestCachingReducesWireCalls(t *testing.T) {
	w, s, cl := newWorld(t, "cache")
	if _, err := w.NewUser(cl, s, "u", 1000, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.WriteFile(rootCred(), "f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := s.Path.String() + "/f"
	if _, err := cl.Stat("u", path); err != nil {
		t.Fatal(err)
	}
	st1, _ := cl.Stats("u", path)
	for i := 0; i < 20; i++ {
		if _, err := cl.Stat("u", path); err != nil {
			t.Fatal(err)
		}
	}
	st2, _ := cl.Stats("u", path)
	if st2.AttrHits <= st1.AttrHits {
		t.Fatalf("no cache hits: %+v -> %+v", st1, st2)
	}
}

// TestRepliesSpareTheWalk: a path made by this client is walked with no
// RPC at all — MKDIR and CREATE bound its names — and the lease-cache
// counters reach the stats document sfscd and /stats render.
func TestRepliesSpareTheWalk(t *testing.T) {
	w, s, cl := newWorld(t, "spare")
	if _, err := w.NewUser(cl, s, "root", 0, ""); err != nil {
		t.Fatal(err)
	}
	base := s.Path.String()
	if err := cl.Mkdir("root", base+"/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteFile("root", base+"/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := cl.TotalRPCs()
	if a, err := cl.Stat("root", base+"/d/f"); err != nil || a.Size != 1 {
		t.Fatalf("stat: %+v, %v", a, err)
	}
	if sent := cl.TotalRPCs() - before; sent != 0 {
		t.Fatalf("stat of a file this client just made sent %d RPCs", sent)
	}
	if err := cl.Rename("root", base+"/d/f", base+"/d/g"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove("root", base+"/d/g"); err != nil {
		t.Fatal(err)
	}
	m := cl.StatsSnapshot().Mounts[0]
	if m.NameInstalls < 3 || m.NameHits < 2 || m.Forgets != 1 || m.Records != 2 {
		t.Fatalf("mount stats: %d installs (want >= 3: mkdir, create, rename), %d name hits, %d forgets (want 1: the removed file), %d records (want 2: root and d)",
			m.NameInstalls, m.NameHits, m.Forgets, m.Records)
	}
}

func TestNotSFSPathRejected(t *testing.T) {
	_, _, cl := newWorld(t, "notsfs")
	cl.RegisterAgent("u", agent.New("u", nil))
	if _, err := cl.ReadFile("u", "/etc/passwd"); !errors.Is(err, client.ErrNotSFS) {
		t.Fatalf("got %v, want ErrNotSFS", err)
	}
}

func TestNoAgentRejected(t *testing.T) {
	_, s, cl := newWorld(t, "noagent")
	if _, err := cl.ReadFile("ghost", s.Path.String()+"/f"); !errors.Is(err, client.ErrNoAgent) {
		t.Fatalf("got %v, want ErrNoAgent", err)
	}
}

func TestFileStreaming(t *testing.T) {
	w, s, cl := newWorld(t, "stream")
	if _, err := w.NewUser(cl, s, "root", 0, ""); err != nil {
		t.Fatal(err)
	}
	base := s.Path.String()
	f, err := cl.Create("root", base+"/s.txt", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("part one, ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("part two")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	g, err := cl.Open("root", base+"/s.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := g.Read(buf)
	if string(buf[:n]) != "part one, part two" {
		t.Fatalf("streamed read: %q", buf[:n])
	}
	var whole bytes.Buffer
	g.Seek(0)
	for {
		n, err := g.Read(buf)
		whole.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if whole.String() != "part one, part two" {
		t.Fatalf("loop read: %q", whole.String())
	}
	_ = nfs.Fattr{}
}
