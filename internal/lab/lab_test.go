package lab

import (
	"testing"

	"repro/internal/client"
	"repro/internal/vfs"
)

func TestWorldAssembly(t *testing.T) {
	w, err := NewWorld("lab-test")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := w.ServeFS("a.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Path.Location != "a.example.com" {
		t.Fatalf("path location %q", s.Path.Location)
	}
	// Dialing a known location works; unknown fails.
	c, err := w.Dial("a.example.com")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := w.Dial("unknown.example.com"); err == nil {
		t.Fatal("unknown location dialed")
	}

	cl, err := w.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.NewUser(cl, s, "u", 1000, "pw")
	if err != nil {
		t.Fatal(err)
	}
	if a.User() != "u" {
		t.Fatalf("agent user %q", a.User())
	}
	if len(a.Keys()) != 1 {
		t.Fatalf("agent has %d keys", len(a.Keys()))
	}
	// The registered user can reach the served file system.
	if err := s.FS.WriteFile(vfs.Cred{UID: 0}, "f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := cl.ReadFile("u", s.Path.String()+"/f")
	if err != nil || string(data) != "x" {
		t.Fatalf("read: %q %v", data, err)
	}
	// Password fetch works against the world's authserver (the user
	// was registered with SRP data).
	rec, ok := s.DB.ByName("u")
	if !ok || len(rec.SRPVerifier) == 0 {
		t.Fatal("user not registered with SRP data")
	}
	// Anonymous users attach without keys.
	anon := w.NewAnonymousUser(cl, "guest")
	if len(anon.Keys()) != 0 {
		t.Fatal("anonymous agent has keys")
	}
}

func TestTwoServersOneWorld(t *testing.T) {
	w, err := NewWorld("lab-two")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s1, err := w.ServeFS("one.example.com", 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := w.ServeFS("two.example.com", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Path.HostID == s2.Path.HostID {
		t.Fatal("two servers share a HostID")
	}
}
