package client_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/crypto/rabin"
	"repro/internal/lab"
	"repro/internal/nfs"
	"repro/internal/sfsro"
	"repro/internal/vfs"
)

// buildROWorld publishes a read-only database through a lab world and
// returns its self-certifying path.
func buildROWorld(t *testing.T, seed string) (*lab.World, *sfsro.DB, string) {
	t.Helper()
	w, err := lab.NewWorld(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	key, err := rabin.GenerateKey(w.RNG, lab.KeyBits)
	if err != nil {
		t.Fatal(err)
	}
	src := vfs.New()
	cred := vfs.Cred{UID: 0}
	if err := src.WriteFile(cred, "links/target", []byte("unused"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteFile(cred, "pub/catalog.txt", []byte("read-only, verified"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := src.SymlinkAt(cred, "pub/alias", "catalog.txt"); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteFile(cred, "data/big.bin", bigROFile(), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := sfsro.BuildFromVFS(src, "ca.example.com", key, 1, time.Hour, w.RNG, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.ServeReadOnly(db)
	if err != nil {
		t.Fatal(err)
	}
	return w, db, p.String()
}

// bigROFile spans several 8 KB READ chunks and ends mid-chunk.
func bigROFile() []byte {
	b := make([]byte, 5*8192+1234)
	for i := range b {
		b[i] = byte(i*31 + i>>8)
	}
	return b
}

func TestReadOnlyMountThroughClient(t *testing.T) {
	w, _, base := buildROWorld(t, "romount")
	cl, err := w.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		t.Fatal(err)
	}
	w.NewAnonymousUser(cl, "u")

	// Ordinary path operations work through /sfs, fully verified.
	data, err := cl.ReadFile("u", base+"/pub/catalog.txt")
	if err != nil || string(data) != "read-only, verified" {
		t.Fatalf("read: %q %v", data, err)
	}
	// Relative symlinks inside the RO tree resolve.
	data, err = cl.ReadFile("u", base+"/pub/alias")
	if err != nil || string(data) != "read-only, verified" {
		t.Fatalf("through symlink: %q %v", data, err)
	}
	ents, err := cl.ReadDir("u", base+"/pub")
	if err != nil || len(ents) != 2 {
		t.Fatalf("readdir: %d %v", len(ents), err)
	}
	attr, err := cl.Stat("u", base+"/pub/catalog.txt")
	if err != nil || attr.Type != nfs.TypeReg {
		t.Fatalf("stat: %+v %v", attr, err)
	}
	if attr.Mode&0o222 != 0 {
		t.Fatal("read-only file reports writable mode bits")
	}
	// A multi-chunk file streams through the read-ahead window, each
	// chunk verified as it is consumed.
	data, err = cl.ReadFile("u", base+"/data/big.bin")
	if err != nil || !bytes.Equal(data, bigROFile()) {
		t.Fatalf("multi-chunk read: %d bytes, err %v", len(data), err)
	}
	// pwd works on RO mounts too.
	pwd, err := cl.SelfPath("u", base+"/pub")
	if err != nil || pwd != base {
		t.Fatalf("SelfPath: %q %v", pwd, err)
	}
}

func TestReadOnlyMountRefusesWrites(t *testing.T) {
	w, _, base := buildROWorld(t, "rowrite")
	cl, err := w.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		t.Fatal(err)
	}
	w.NewAnonymousUser(cl, "u")
	if err := cl.WriteFile("u", base+"/pub/new.txt", []byte("nope")); !errors.Is(err, nfs.Error(nfs.ErrROFS)) {
		t.Fatalf("write: %v, want EROFS", err)
	}
	if err := cl.Remove("u", base+"/pub/catalog.txt"); !errors.Is(err, nfs.Error(nfs.ErrROFS)) {
		t.Fatalf("remove: %v, want EROFS", err)
	}
	if err := cl.Mkdir("u", base+"/pub/d", 0o755); !errors.Is(err, nfs.Error(nfs.ErrROFS)) {
		t.Fatalf("mkdir: %v, want EROFS", err)
	}
	if err := cl.Chmod("u", base+"/pub/catalog.txt", 0o777); !errors.Is(err, nfs.Error(nfs.ErrROFS)) {
		t.Fatalf("chmod: %v, want EROFS", err)
	}
	// An existing file opened for reading: the write is buffered, and
	// the Sync that sends it is refused.
	f, err := cl.Open("u", base+"/pub/catalog.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("nope"), 0); err != nil {
		t.Fatalf("buffered write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, nfs.Error(nfs.ErrROFS)) {
		t.Fatalf("sync: %v, want EROFS", err)
	}
}

func TestCertificationPathOnReadOnlyCA(t *testing.T) {
	// The paper's deployment: the CA's links live on a read-only,
	// replicated file system; a certification path points at it and
	// the target is a normal read-write server.
	w, err := lab.NewWorld("roca")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	target, err := w.ServeFS("target.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	if err := target.FS.WriteFile(vfs.Cred{UID: 0}, "pub/data", []byte("via RO CA"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Build the CA database carrying a secure link to the target.
	key, err := rabin.GenerateKey(w.RNG, lab.KeyBits)
	if err != nil {
		t.Fatal(err)
	}
	src := vfs.New()
	if err := src.SymlinkAt(vfs.Cred{UID: 0}, "links/target", target.Path.String()); err != nil {
		t.Fatal(err)
	}
	db, err := sfsro.BuildFromVFS(src, "roca.example.com", key, 1, time.Hour, w.RNG, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	caPath, err := w.ServeReadOnly(db)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := w.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		t.Fatal(err)
	}
	a := w.NewAnonymousUser(cl, "u")
	a.SetCertPaths([]string{caPath.String() + "/links"})
	data, err := cl.ReadFile("u", "/sfs/target/pub/data")
	if err != nil || string(data) != "via RO CA" {
		t.Fatalf("via read-only CA: %q %v", data, err)
	}
}
