package bench

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	nfspkg "repro/internal/nfs"
)

func buildOrSkip(t *testing.T, kind StackKind) Stack {
	t.Helper()
	st, _, err := Build(kind)
	if err != nil {
		t.Fatalf("Build(%s): %v", kind, err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestStacksBasicOps(t *testing.T) {
	for _, kind := range []StackKind{KindLocal, KindNFSUDP, KindNFSTCP, KindSFS, KindSFSNoEnc, KindSFSNoCache} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			st := buildOrSkip(t, kind)
			if err := st.Mkdir("d"); err != nil {
				t.Fatal(err)
			}
			if err := st.WriteFile("d/f", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			data, err := st.ReadFile("d/f")
			if err != nil || string(data) != "hello" {
				t.Fatalf("read back: %q %v", data, err)
			}
			if err := st.Stat("d/f"); err != nil {
				t.Fatal(err)
			}
			if err := st.ReadDir("d"); err != nil {
				t.Fatal(err)
			}
			if err := st.ChownFail("d/f"); err != nil {
				t.Fatal(err)
			}
			if err := st.Truncate("d/f", 100); err != nil {
				t.Fatal(err)
			}
			if err := st.Remove("d/f"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFig8RPCEconomics asserts the mechanism behind Figure 8's create
// phase from the server's own counters: writing a fresh 1 KB file
// costs SFS exactly 2 server RPCs (CREATE plus one FILE_SYNC WRITE —
// the small-file sync shortcut), while the NFS baseline pays 3
// (CREATE, unstable WRITE, COMMIT).
func TestFig8RPCEconomics(t *testing.T) {
	run := func(kind StackKind) uint64 {
		st := buildOrSkip(t, kind)
		// A warm-up file primes the mount, handle caches, and access
		// checks so the measured file shows steady-state cost.
		data := make([]byte, 1024)
		if err := st.WriteFile("warm", data); err != nil {
			t.Fatal(err)
		}
		ss, ok := st.ServerStats()
		if !ok {
			t.Fatalf("%s: stack reports no server stats", kind)
		}
		before := ss.TotalCalls()
		if err := st.WriteFile("f", data); err != nil {
			t.Fatal(err)
		}
		ss, _ = st.ServerStats()
		return ss.TotalCalls() - before
	}
	if got := run(KindSFS); got != 2 {
		t.Errorf("SFS 1 KB create = %d server RPCs, want 2 (CREATE + FILE_SYNC WRITE)", got)
	}
	if got := run(KindNFSUDP); got != 3 {
		t.Errorf("NFS 1 KB create = %d server RPCs, want 3 (CREATE + WRITE + COMMIT)", got)
	}
}

func TestFigureSlugAndJSON(t *testing.T) {
	f := &Figure{
		ID:    "Figure 9 (large file, encryption off)",
		Title: "t",
		Quick: true,
		Rows:  []FigureRow{{Stack: "SFS", Phase: "seq write", Value: 1.5, Unit: "s", RPCs: 7}},
		Counters: map[string]nfspkg.ServerStats{
			"SFS": {SyncWrites: 1, Commits: 2},
		},
	}
	if got := f.Slug(); got != "figure-9-large-file-encryption-off" {
		t.Fatalf("Slug = %q", got)
	}
	dir := t.TempDir()
	path, err := f.WriteJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Figure
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != f.ID || !back.Quick || len(back.Rows) != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	r := back.Rows[0]
	if r.Stack != "SFS" || r.Value != 1.5 || r.RPCs != 7 || r.Paper != 0 {
		t.Fatalf("row mismatch: %+v", r)
	}
	c, ok := back.Counters["SFS"]
	if !ok || c.SyncWrites != 1 || c.Commits != 2 {
		t.Fatalf("counters did not round-trip: %+v", back.Counters)
	}
}

func TestCachingAblationRPCCounts(t *testing.T) {
	// The mechanism behind Figures 6 and 8: enhanced caching cuts
	// wire RPCs. Measured without netsim noise by comparing counts.
	count := func(kind StackKind) uint64 {
		st := buildOrSkip(t, kind)
		if err := st.WriteFile("f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		before := st.Stats().Calls
		for i := 0; i < 30; i++ {
			if err := st.Stat("f"); err != nil {
				t.Fatal(err)
			}
		}
		return st.Stats().Calls - before
	}
	with := count(KindSFS)
	without := count(KindSFSNoCache)
	if with >= without {
		t.Errorf("enhanced caching did not reduce RPCs: %d vs %d", with, without)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Bytes: 10_000_000, Elapsed: time.Second}
	if got := r.MBps(); got < 9.9 || got > 10.1 {
		t.Fatalf("MBps = %v", got)
	}
	if (Result{}).MBps() != 0 {
		t.Fatal("zero result MBps")
	}
}

func TestFigureRowLookup(t *testing.T) {
	f := Figure{Rows: []FigureRow{{Stack: "SFS", Phase: "latency", Value: 1}}}
	if _, ok := f.rowFor("SFS", "latency"); !ok {
		t.Fatal("rowFor missed")
	}
	if _, ok := f.rowFor("SFS", "nope"); ok {
		t.Fatal("rowFor false positive")
	}
}

func TestMABTreeDeterministic(t *testing.T) {
	a := genMABTree()
	b := genMABTree()
	if len(a.files) != len(b.files) {
		t.Fatal("tree size differs")
	}
	for name, data := range a.files {
		if string(b.files[name]) != string(data) {
			t.Fatalf("file %s differs between generations", name)
		}
	}
}

func TestGenSourceHasNoNeedle(t *testing.T) {
	g := genMABTree()
	for name, data := range g.files {
		if contains(data, []byte("no-such-needle")) {
			t.Fatalf("%s contains the search needle", name)
		}
	}
}
