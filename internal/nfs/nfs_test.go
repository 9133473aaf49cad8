package nfs

import (
	"bytes"
	"errors"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/storage/diskstore"
	"repro/internal/storage/wal"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

func rootAuth() sunrpc.OpaqueAuth { return sunrpc.UnixAuth(0, []uint32{0}) }

func newPair(t *testing.T, srvCfg ServerConfig, clCfg ClientConfig) (*vfs.FS, *Server, *Client) {
	t.Helper()
	return newPairOn(t, vfs.New(), srvCfg, clCfg)
}

func newPairOn(t *testing.T, fs *vfs.FS, srvCfg ServerConfig, clCfg ClientConfig) (*vfs.FS, *Server, *Client) {
	t.Helper()
	srv := NewServer(fs, srvCfg)
	c1, c2 := net.Pipe()
	sess := srv.ServeConn(c2)
	t.Cleanup(func() { sess.Close() })
	if clCfg.Auth == nil {
		clCfg.Auth = rootAuth
	}
	cl := Dial(c1, clCfg)
	t.Cleanup(func() { cl.Close() })
	return fs, srv, cl
}

func sfsServerConfig() ServerConfig {
	return ServerConfig{LeaseMS: 60000, Callbacks: true}
}

func sfsClientConfig() ClientConfig {
	return ClientConfig{UseLeases: true, AccessCache: true}
}

func TestMountAndBasicOps(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, attr, err := cl.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != TypeDir {
		t.Fatal("root is not a dir")
	}
	fh, _, err := cl.Create(root, "f.txt", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(fh, 0, []byte("hello over the wire"), Unstable); err != nil {
		t.Fatal(err)
	}
	got, eof, err := cl.Read(fh, 0, 100)
	if err != nil || !eof {
		t.Fatalf("read: %v eof=%v", err, eof)
	}
	if string(got) != "hello over the wire" {
		t.Fatalf("got %q", got)
	}
	lfh, lattr, err := cl.Lookup(root, "f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lfh, fh) || lattr.Size != 19 {
		t.Fatalf("lookup: %x size=%d", lfh, lattr.Size)
	}
}

func TestErrorsMapped(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	if _, _, err := cl.Lookup(root, "missing"); !errors.Is(err, Error(ErrNoEnt)) {
		t.Fatalf("lookup missing: %v", err)
	}
	cl.Create(root, "f", 0o644, true) //nolint:errcheck
	if _, _, err := cl.Create(root, "f", 0o644, true); !errors.Is(err, Error(ErrExist)) {
		t.Fatalf("exclusive create: %v", err)
	}
	if err := cl.Rmdir(root, "f"); !errors.Is(err, Error(ErrNotDir)) {
		t.Fatalf("rmdir on file: %v", err)
	}
	if _, _, err := cl.Lookup(FH("bogus handle..................."), "x"); err == nil {
		t.Fatal("bogus handle accepted")
	}
}

func TestDirOpsOverWire(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	d, _, err := cl.Mkdir(root, "dir", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c"} {
		if _, _, err := cl.Create(d, n, 0o644, true); err != nil {
			t.Fatal(err)
		}
	}
	ents, eof, err := cl.ReadDir(d, 0, 100)
	if err != nil || !eof || len(ents) != 3 {
		t.Fatalf("readdir: %d entries eof=%v err=%v", len(ents), eof, err)
	}
	// READDIRPLUS-style handles and attrs present.
	for _, e := range ents {
		if len(e.FH) == 0 || e.Attr == nil {
			t.Fatalf("entry %q missing fh/attr", e.Name)
		}
	}
	if err := cl.Rename(d, "a", root, "a-moved"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove(d, "b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove(d, "c"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Rmdir(root, "dir"); err != nil {
		t.Fatal(err)
	}
}

func TestSymlinkOverWire(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	fh, attr, err := cl.Symlink(root, "link", "/sfs/host:abc/file")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Type != TypeSymlink {
		t.Fatal("wrong type")
	}
	target, err := cl.Readlink(fh)
	if err != nil || target != "/sfs/host:abc/file" {
		t.Fatalf("readlink: %q %v", target, err)
	}
}

func TestSetAttrOverWire(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	cl.Write(fh, 0, []byte("0123456789"), Unstable) //nolint:errcheck
	sz := uint64(4)
	attr, err := cl.SetAttr(SetAttrArgs{FH: fh, SetSize: &sz})
	if err != nil || attr.Size != 4 {
		t.Fatalf("truncate: %+v %v", attr, err)
	}
	mode := uint32(0o600)
	attr, err = cl.SetAttr(SetAttrArgs{FH: fh, SetMode: &mode})
	if err != nil || attr.Mode != 0o600 {
		t.Fatalf("chmod: %+v %v", attr, err)
	}
}

func TestCredentialEnforcementOverWire(t *testing.T) {
	fsys, _, cl := newPair(t, ServerConfig{}, ClientConfig{
		Auth: func() sunrpc.OpaqueAuth { return sunrpc.UnixAuth(1001, []uint32{1001}) },
	})
	// Server-side: make a root-owned 0600 file.
	id, _, err := fsys.Create(vfs.Cred{UID: 0}, fsys.Root(), "secret", 0o600, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Write(vfs.Cred{UID: 0}, id, 0, []byte("top"), false); err != nil {
		t.Fatal(err)
	}
	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Lookup(root, "secret")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read(fh, 0, 10); !errors.Is(err, Error(ErrAcces)) {
		t.Fatalf("unauthorized read: %v", err)
	}
}

func TestAttrCachingReducesRPCs(t *testing.T) {
	_, _, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	before := cl.Stats().Calls
	for i := 0; i < 10; i++ {
		if _, err := cl.GetAttr(fh); err != nil {
			t.Fatal(err)
		}
	}
	st := cl.Stats()
	if st.Calls != before {
		t.Fatalf("leased GETATTRs went over the wire: %d calls", st.Calls-before)
	}
	if st.AttrHits < 10 {
		t.Fatalf("attr hits = %d", st.AttrHits)
	}
}

func TestNoCachingWithoutLeases(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{}) // plain NFS: no attribute cache
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	before := cl.Stats().Calls
	for i := 0; i < 5; i++ {
		cl.GetAttr(fh) //nolint:errcheck
	}
	if got := cl.Stats().Calls - before; got != 5 {
		t.Fatalf("expected 5 wire GETATTRs, got %d", got)
	}
}

func TestAccessCache(t *testing.T) {
	_, _, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	if _, err := cl.Access(fh, AccessRead); err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Calls
	for i := 0; i < 10; i++ {
		got, err := cl.Access(fh, AccessRead)
		if err != nil {
			t.Fatal(err)
		}
		if got&AccessRead == 0 {
			t.Fatal("cached access lost the grant")
		}
	}
	if cl.Stats().Calls != before {
		t.Fatal("cached ACCESS checks went over the wire")
	}
}

// TestSessionCountsMalformedRecords: an NFS session reads its records
// on the peer's loop, and counts what it discards there as dropped —
// a record too short to say what it is, and a reply to nothing it
// asked — while the connection keeps serving.
func TestSessionCountsMalformedRecords(t *testing.T) {
	srv := NewServer(vfs.New(), sfsServerConfig())
	c1, c2 := net.Pipe()
	sess := srv.ServeConn(c2)
	defer sess.Close()
	stray := []byte{0, 0, 0, 42, 0, 0, 0, 1, 0, 0, 0, 0} // xid 42, REPLY, accepted
	for _, rec := range [][]byte{{1, 2, 3, 4, 5}, stray} {
		if err := sunrpc.WriteRecord(c1, rec); err != nil {
			t.Fatal(err)
		}
	}
	cl := Dial(c1, ClientConfig{Auth: rootAuth})
	defer cl.Close()
	if _, _, err := cl.MountRoot(); err != nil {
		t.Fatal(err)
	}
	rpc := srv.StatsSnapshot().RPC
	if rpc.Dropped != 2 || rpc.Calls != 1 {
		t.Fatalf("dropped %d, calls %d; want 2 and 1", rpc.Dropped, rpc.Calls)
	}
}

func TestInvalidationCallback(t *testing.T) {
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
	root1, _, err := cl1.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	root2, _, _ := cl2.MountRoot()
	fh1, _, _ := cl1.Create(root1, "shared", 0o666, true)
	// Client 2 caches the attributes.
	fh2, _, err := cl2.Lookup(root2, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.GetAttr(fh2); err != nil {
		t.Fatal(err)
	}
	// Client 1 writes; server should call back to client 2. Earlier
	// directory operations may already have produced callbacks, so
	// wait for the file-level one by polling the cache contents.
	before := cl2.Stats().Invals
	if _, err := cl1.Write(fh1, 0, []byte("invalidate me"), Unstable); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cl2.Stats().Invals == before {
		if time.Now().After(deadline) {
			t.Fatal("no invalidation callback arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// Next GetAttr must go to the server and see the new size. The
	// write-callback races only with itself here: poll until the
	// stale entry is gone.
	deadline = time.Now().Add(2 * time.Second)
	for {
		attr, err := cl2.GetAttr(fh2)
		if err != nil {
			t.Fatal(err)
		}
		if attr.Size == 13 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale size %d after invalidation", attr.Size)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMutationInvalidatesOwnCache(t *testing.T) {
	_, _, cl := newPair(t, sfsServerConfig(), sfsClientConfig())
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	cl.GetAttr(fh) //nolint:errcheck
	if _, err := cl.Write(fh, 0, []byte("xyz"), Unstable); err != nil {
		t.Fatal(err)
	}
	attr, err := cl.GetAttr(fh)
	if err != nil || attr.Size != 3 {
		t.Fatalf("size %d err %v after write", attr.Size, err)
	}
}

// readAll reads a whole file with serial READs of chunk bytes each.
func readAll(cl *Client, fh FH, chunk uint32) ([]byte, error) {
	var out []byte
	for {
		data, eof, err := cl.Read(fh, uint64(len(out)), chunk)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
		if eof || len(data) == 0 {
			return out, nil
		}
	}
}

func TestReadAllChunks(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "big", 0o644, true)
	want := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16 KB
	if _, err := cl.Write(fh, 0, want, Unstable); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(cl, fh, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read returned %d bytes, want %d", len(got), len(want))
	}
}

// TestReadDirPageBoundaries pins READDIR's count at its boundaries: a
// one-entry page (every entry its own round trip, the cookie carrying
// the walk) and a page larger than the directory (one round trip, EOF
// on it). Both must list every entry exactly once.
func TestReadDirPageBoundaries(t *testing.T) {
	names := []string{"a.txt", "b.txt", "c.txt", "d.txt", "e.txt"}
	for _, tc := range []struct {
		label string
		count uint32
		pages int
	}{
		{"page1", 1, len(names)},
		{"page64", 64, 1},
	} {
		t.Run(tc.label, func(t *testing.T) {
			_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
			root, _, _ := cl.MountRoot()
			d, _, err := cl.Mkdir(root, "dir", 0o755)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				if _, _, err := cl.Create(d, n, 0o644, true); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			cookie, pages := uint64(0), 0
			for eof := false; !eof; pages++ {
				var ents []Entry
				ents, eof, err = cl.ReadDir(d, cookie, tc.count)
				if err != nil {
					t.Fatal(err)
				}
				if uint32(len(ents)) > tc.count {
					t.Fatalf("page of %d entries, asked for %d", len(ents), tc.count)
				}
				for _, e := range ents {
					got = append(got, e.Name)
					cookie = e.Cookie
				}
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(names, ",") {
				t.Fatalf("listing %v, want %v", got, names)
			}
			if pages != tc.pages {
				t.Fatalf("%d READDIRs, want %d", pages, tc.pages)
			}
		})
	}
}

func TestWriteSizeLimit(t *testing.T) {
	_, srv, cl := newPair(t, ServerConfig{}, ClientConfig{})
	srv.maxIO = 1024
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	if _, err := cl.Write(fh, 0, make([]byte, 2048), Unstable); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestStaleAfterRemove(t *testing.T) {
	_, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	if err := cl.Remove(root, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetAttr(fh); !errors.Is(err, Error(ErrStale)) {
		t.Fatalf("got %v, want stale", err)
	}
}

func TestCommit(t *testing.T) {
	fsys, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	if _, err := cl.Write(fh, 0, []byte("unstable"), Unstable); err != nil {
		t.Fatal(err)
	}
	verf, err := cl.Commit(fh)
	if err != nil {
		t.Fatal(err)
	}
	if verf != fsys.Verifier() {
		t.Fatalf("commit verifier %x, server boot verifier %x", verf, fsys.Verifier())
	}
}

func TestUDPHandlerMode(t *testing.T) {
	fsys := vfs.New()
	srv := NewServer(fsys, ServerConfig{})
	rpc := sunrpc.NewServer()
	rpc.Register(Program, Version, srv.Handler())
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go rpc.ServePacket(pc) //nolint:errcheck
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := Dial(sunrpc.NewDatagramConn(conn), ClientConfig{Auth: rootAuth})
	defer cl.Close()
	root, _, err := cl.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := cl.Create(root, "udp.txt", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Write(fh, 0, []byte("datagram"), Unstable); err != nil {
		t.Fatal(err)
	}
	data, _, err := cl.Read(fh, 0, 100)
	if err != nil || string(data) != "datagram" {
		t.Fatalf("read over UDP: %q %v", data, err)
	}
}

func TestPlainCodecRoundTrip(t *testing.T) {
	c := PlainCodec{}
	fh := c.Encode(12345)
	id, err := c.Decode(fh)
	if err != nil || id != 12345 {
		t.Fatalf("round trip: %d %v", id, err)
	}
	if _, err := c.Decode(FH("short")); err == nil {
		t.Fatal("short handle accepted")
	}
}

func BenchmarkNullRPC(b *testing.B) {
	fsys := vfs.New()
	srv := NewServer(fsys, ServerConfig{})
	c1, c2 := net.Pipe()
	srv.ServeConn(c2)
	cl := Dial(c1, ClientConfig{Auth: rootAuth})
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.call(ProcNull, nil, &struct{}{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead8K(b *testing.B) {
	fsys := vfs.New()
	srv := NewServer(fsys, ServerConfig{})
	c1, c2 := net.Pipe()
	srv.ServeConn(c2)
	cl := Dial(c1, ClientConfig{Auth: rootAuth})
	defer cl.Close()
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	cl.Write(fh, 0, make([]byte, 8192), Unstable) //nolint:errcheck
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Read(fh, 0, 8192); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWriteStartPipelined(t *testing.T) {
	fsys, _, cl := newPair(t, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	// Issue a whole window of unstable WRITEs before finishing any
	// future, then collect the replies in order.
	payload := []byte("0123456789abcdef")
	var fins []func() (uint32, uint64, error)
	for i := 0; i < 8; i++ {
		fin, err := cl.WriteStart(fh, uint64(i*len(payload)), payload, Unstable)
		if err != nil {
			t.Fatal(err)
		}
		fins = append(fins, fin)
	}
	for i, fin := range fins {
		n, verf, err := fin()
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if n != uint32(len(payload)) {
			t.Fatalf("write %d: short count %d", i, n)
		}
		if verf != fsys.Verifier() {
			t.Fatalf("write %d: verifier %x, server boot verifier %x", i, verf, fsys.Verifier())
		}
	}
	got, err := readAll(cl, fh, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat(payload, 8)) {
		t.Fatalf("readback %d bytes mismatched", len(got))
	}
}

// TestWriteVerifierChangesAcrossRestart: a server reboot bumps the boot
// verifier, and both WRITE and COMMIT expose the new one so the client
// knows to retransmit. The reboot is a real crash of the disk store,
// and the uncommitted write is gone.
func TestWriteVerifierChangesAcrossRestart(t *testing.T) {
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
		testWriteVerifier(t, fs)
	})
}

func testWriteVerifier(t *testing.T, fs *vfs.FS) {
	fsys, _, cl := newPairOn(t, fs, ServerConfig{}, ClientConfig{})
	root, _, _ := cl.MountRoot()
	fh, _, _ := cl.Create(root, "f", 0o644, true)
	fin, err := cl.WriteStart(fh, 0, []byte("before"), Unstable)
	if err != nil {
		t.Fatal(err)
	}
	_, verf1, err := fin()
	if err != nil {
		t.Fatal(err)
	}
	if got := fsys.StorageStats().WALBytes; got >= wal.DefaultAutoFlush {
		t.Fatalf("journal appends total %d bytes, not below the %d-byte spill mark", got, wal.DefaultAutoFlush)
	}
	if err := fsys.Restart(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := cl.Read(fh, 0, 100); err != nil || len(got) != 0 {
		t.Fatalf("after the restart the file holds %q (err=%v), want nothing", got, err)
	}
	fin, err = cl.WriteStart(fh, 0, []byte("after!"), Unstable)
	if err != nil {
		t.Fatal(err)
	}
	_, verf2, err := fin()
	if err != nil {
		t.Fatal(err)
	}
	if verf1 == verf2 {
		t.Fatalf("verifier did not change across restart: %x", verf1)
	}
	cverf, err := cl.Commit(fh)
	if err != nil {
		t.Fatal(err)
	}
	if cverf != verf2 {
		t.Fatalf("commit verifier %x != post-restart write verifier %x", cverf, verf2)
	}
	if err := fsys.Restart(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := cl.Read(fh, 0, 100); err != nil || string(got) != "after!" {
		t.Fatalf("committed data after a second restart: %q (err=%v)", got, err)
	}
}
