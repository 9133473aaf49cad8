package client_test

import (
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/lab"
)

// TestReadDirPageBoundaries lists a directory larger than one READDIR
// page (256 entries) through client.ReadDir: the walk must follow the
// cookie across pages and return every entry exactly once, in two
// READDIRs. The one-entry and larger-than-the-directory page sizes are
// pinned against nfs.Client.ReadDir, which takes the count directly.
func TestReadDirPageBoundaries(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		w, err := lab.NewWorld("readdirpage")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		s, err := w.ServeFS("server.example.com", 30000)
		if err != nil {
			t.Fatal(err)
		}
		const n = 300
		for i := 0; i < n; i++ {
			if _, _, err := s.FS.Create(rootCred(), s.FS.Root(), fmt.Sprintf("f%03d", i), 0o644, true); err != nil {
				t.Fatal(err)
			}
		}
		cl, err := w.NewClient(client.Config{EnhancedCaching: true})
		if err != nil {
			t.Fatal(err)
		}
		w.NewAnonymousUser(cl, "anon")
		dir := s.Path.String()
		if _, err := cl.Stat("anon", dir); err != nil { // mount and lease the root
			t.Fatal(err)
		}
		before := cl.TotalRPCs()
		ents, err := cl.ReadDir("anon", dir)
		if err != nil {
			t.Fatal(err)
		}
		if rpcs := cl.TotalRPCs() - before; rpcs != 2 {
			t.Fatalf("listing %d entries cost %d RPCs, want 2 READDIRs", n, rpcs)
		}
		seen := make(map[string]bool)
		for _, e := range ents {
			if seen[e.Name] {
				t.Fatalf("entry %q listed twice", e.Name)
			}
			seen[e.Name] = true
		}
		for i := 0; i < n; i++ {
			if name := fmt.Sprintf("f%03d", i); !seen[name] {
				t.Fatalf("listing of %d entries misses %q", len(ents), name)
			}
		}
	})
}
