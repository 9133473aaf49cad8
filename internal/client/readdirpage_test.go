package client_test

import (
	"sort"
	"testing"

	"repro/internal/client"
	"repro/internal/lab"
)

// TestReadDirPageBoundaries pins the Config.ReadDirPage knob at its
// boundary values: a one-entry page (maximum paging, every entry a
// READDIR round trip), a page larger than the directory (single
// round trip), and zero/negative (fall back to the default 256).
// Every configuration must return the identical, complete listing.
func TestReadDirPageBoundaries(t *testing.T) {
	w, err := lab.NewWorld("readdirpage")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s, err := w.ServeFS("server.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a.txt", "b.txt", "c.txt", "d.txt", "e.txt"}
	for _, name := range names {
		if _, _, err := s.FS.Create(rootCred(), s.FS.Root(), name, 0o644, true); err != nil {
			t.Fatal(err)
		}
	}
	dir := s.Path.String()

	newPagedClient := func(page int) *client.Client {
		cl, err := w.NewClient(client.Config{EnhancedCaching: true, ReadDirPage: page})
		if err != nil {
			t.Fatal(err)
		}
		w.NewAnonymousUser(cl, "anon")
		return cl
	}

	var want []string
	for _, tc := range []struct {
		label string
		page  int
	}{
		{"page1", 1},             // one entry per READDIR
		{"page64", 64},           // page ≥ directory size
		{"default", 0},           // zero selects 256
		{"negative-default", -7}, // ≤0 selects 256 too
	} {
		t.Run(tc.label, func(t *testing.T) {
			cl := newPagedClient(tc.page)
			ents, err := cl.ReadDir("anon", dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range ents {
				got = append(got, e.Name)
			}
			sort.Strings(got)
			if want == nil {
				want = got
				for _, name := range names {
					if sort.SearchStrings(got, name) >= len(got) || got[sort.SearchStrings(got, name)] != name {
						t.Fatalf("listing %v missing %q", got, name)
					}
				}
				return
			}
			if len(got) != len(want) {
				t.Fatalf("page=%d listing %v, want %v", tc.page, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("page=%d listing %v, want %v", tc.page, got, want)
				}
			}
		})
	}
}
