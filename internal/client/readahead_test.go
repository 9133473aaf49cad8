package client_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/lab"
	"repro/internal/nfs"
)

// readAheadWorld serves one file system and mounts it through a client
// built from cfg, for an anonymous user "u".
func readAheadWorld(t *testing.T, cfg client.Config) (*lab.World, *lab.Served, *client.Client) {
	t.Helper()
	w, err := lab.NewWorld("readahead")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s, err := w.ServeFS("server.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := w.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.NewAnonymousUser(cl, "u")
	return w, s, cl
}

// serverReads is the number of READs the server has answered.
func serverReads(t *testing.T, w *lab.World, s *lab.Served) uint64 {
	t.Helper()
	st, ok := w.Server.NFSStats(s.Location)
	if !ok {
		t.Fatal("no NFS stats for the served file system")
	}
	return st.Procs[nfs.ProcName(nfs.ProcRead)].Calls
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>13)
	}
	return b
}

// TestSequentialReadAtStopsAtEOF streams an N-block file block by block:
// read-ahead never speculates past the size the File was opened with,
// so the stream costs exactly N READs — none probing past the end.
func TestSequentialReadAtStopsAtEOF(t *testing.T) {
	w, s, cl := readAheadWorld(t, client.Config{EnhancedCaching: true, DataCacheBytes: -1})
	const blocks = 20
	want := pattern(blocks * 8192)
	if err := s.FS.WriteFile(rootCred(), "seq.bin", want, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := cl.Open("u", s.Path.String()+"/seq.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := serverReads(t, w, s)
	buf := make([]byte, 8192)
	for b := 0; b < blocks; b++ {
		n, err := f.ReadAt(buf, uint64(b*8192))
		if err != nil || n != len(buf) || !bytes.Equal(buf, want[b*8192:(b+1)*8192]) {
			t.Fatalf("block %d: n=%d err=%v", b, n, err)
		}
	}
	if got := serverReads(t, w, s) - before; got != blocks {
		t.Fatalf("sequential read of %d blocks cost %d READs, want %d", blocks, got, blocks)
	}
}

// TestReadFileReadCount reads whole files through ReadFile, which runs
// the File's read-ahead window: a file of n bytes costs
// max(1, ceil(n/8192)) READs with leases and without, and none once
// the data cache holds it.
func TestReadFileReadCount(t *testing.T) {
	sizes := []int{0, 1 << 10, 8 << 10, 16 << 10, 20 << 10}
	for _, mode := range []struct {
		label string
		cfg   client.Config
	}{
		{"lease", client.Config{EnhancedCaching: true, DataCacheBytes: -1}},
		{"plain", client.Config{DataCacheBytes: -1}},
	} {
		t.Run(mode.label, func(t *testing.T) {
			w, s, cl := readAheadWorld(t, mode.cfg)
			for _, n := range sizes {
				name := fmt.Sprintf("f%d", n)
				want := pattern(n)
				if err := s.FS.WriteFile(rootCred(), name, want, 0o644); err != nil {
					t.Fatal(err)
				}
				before := serverReads(t, w, s)
				got, err := cl.ReadFile("u", s.Path.String()+"/"+name)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%d bytes: read %d bytes, err %v", n, len(got), err)
				}
				if reads, wantReads := serverReads(t, w, s)-before, uint64(max(1, (n+8191)/8192)); reads != wantReads {
					t.Fatalf("ReadFile of %d bytes cost %d READs, want %d", n, reads, wantReads)
				}
			}
		})
	}
	t.Run("warm", func(t *testing.T) {
		w, s, cl := readAheadWorld(t, client.Config{EnhancedCaching: true})
		for _, n := range sizes {
			name := fmt.Sprintf("f%d", n)
			want := pattern(n)
			if err := s.FS.WriteFile(rootCred(), name, want, 0o644); err != nil {
				t.Fatal(err)
			}
			path := s.Path.String() + "/" + name
			if _, err := cl.ReadFile("u", path); err != nil {
				t.Fatal(err)
			}
			before := serverReads(t, w, s)
			got, err := cl.ReadFile("u", path)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d bytes: warm read %d bytes, err %v", n, len(got), err)
			}
			if reads := serverReads(t, w, s) - before; reads != 0 {
				t.Fatalf("warm ReadFile of %d bytes cost %d READs, want 0", n, reads)
			}
		}
	})
}
