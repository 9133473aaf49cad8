package client_test

import (
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/lab"
	"repro/internal/vfs"
)

// TestUserNameMapping exercises the libsfs ID-mapping convention
// (paper §3.3): remote names are prefixed with "%", unless client and
// server agree on the ID.
func TestUserNameMapping(t *testing.T) {
	w, err := lab.NewWorld("idmap")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s, err := w.ServeFS("idmap.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	// Client A: no local idea of uid 1000 → "%dm".
	clA, err := w.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewUser(clA, s, "dm", 1000, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.FS.WriteFile(vfs.Cred{UID: 1000, GIDs: []uint32{1000}}, "f", []byte("x"), 0o644); err != nil {
		// Root creates parent dirs; create directly under root as uid 1000
		// requires write permission — fall back to root-created file chowned.
		if err := s.FS.WriteFile(vfs.Cred{UID: 0}, "f", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		id, _, _ := s.FS.Resolve(vfs.Cred{UID: 0}, "f")
		uid := uint32(1000)
		if _, err := s.FS.SetAttrs(vfs.Cred{UID: 0}, id, vfs.SetAttr{UID: &uid}); err != nil {
			t.Fatal(err)
		}
	}
	path := s.Path.String() + "/f"
	attr, err := clA.Stat("dm", path)
	if err != nil {
		t.Fatal(err)
	}
	name, err := clA.UserName("dm", path, attr.UID)
	if err != nil {
		t.Fatal(err)
	}
	if name != "%dm" {
		t.Fatalf("unmatched client got %q, want %%dm", name)
	}

	// Client B: same LAN convention — local table agrees → "dm".
	clB, err := w.NewClient(client.Config{EnhancedCaching: true, LocalUsers: map[uint32]string{1000: "dm"}})
	if err != nil {
		t.Fatal(err)
	}
	w.NewAnonymousUser(clB, "dm")
	name, err = clB.UserName("dm", path, attr.UID)
	if err != nil {
		t.Fatal(err)
	}
	if name != "dm" {
		t.Fatalf("matched client got %q, want dm", name)
	}

	// Unknown IDs come back numeric.
	name, err = clA.UserName("dm", path, 4242)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(name, "4242") {
		t.Fatalf("unknown uid mapped to %q", name)
	}
}
