package bench

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	nfspkg "repro/internal/nfs"
)

// These tests assert the qualitative claims of the paper's evaluation
// — who wins, roughly by how much — using the Quick workload sizes.
// Absolute numbers live in EXPERIMENTS.md; the assertions here are
// deliberately loose so scheduler noise cannot flake them.

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

func TestFig5LatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	measure := func(kind StackKind) time.Duration {
		st := buildOrSkip(t, kind)
		// Take the best of three short runs: on a loaded 1-CPU
		// machine a single mean can absorb a scheduling blip.
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			r, err := LatencyMicro(st, 50)
			if err != nil {
				t.Fatal(err)
			}
			if r.Elapsed < best {
				best = r.Elapsed
			}
		}
		return best
	}
	nfsUDP := measure(KindNFSUDP)
	sfs := measure(KindSFS)
	sfsNoEnc := measure(KindSFSNoEnc)
	// The paper: SFS ≈ 4x NFS latency; encryption ≈ 20 µs of it.
	if sfs < 2*nfsUDP {
		t.Errorf("SFS latency %v not clearly above NFS %v", sfs, nfsUDP)
	}
	if sfs > 10*nfsUDP {
		t.Errorf("SFS latency %v implausibly above NFS %v", sfs, nfsUDP)
	}
	// Encryption costs only ~20 µs of the ~800 µs total, so the two
	// configurations should be close; fail only on a gross inversion.
	if sfsNoEnc > sfs*3/2 {
		t.Errorf("disabling encryption made latency much worse: %v vs %v", sfsNoEnc, sfs)
	}
}

func TestFig5ThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	measure := func(kind StackKind) float64 {
		st := buildOrSkip(t, kind)
		r, err := ThroughputMicro(st, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		return r.MBps()
	}
	nfsUDP := measure(KindNFSUDP)
	sfs := measure(KindSFS)
	sfsNoEnc := measure(KindSFSNoEnc)
	// NFS beats SFS; removing encryption recovers a chunk of it.
	if sfs >= nfsUDP {
		t.Errorf("SFS throughput %.1f not below NFS %.1f", sfs, nfsUDP)
	}
	if sfsNoEnc <= sfs {
		t.Errorf("encryption shows no throughput cost: %.1f vs %.1f", sfsNoEnc, sfs)
	}
}

func TestFig6MABShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(kind StackKind) time.Duration {
		st := buildOrSkip(t, kind)
		results, err := MABPhases(st)
		if err != nil {
			t.Fatal(err)
		}
		return results[len(results)-1].Elapsed // total
	}
	local := run(KindLocal)
	nfsUDP := run(KindNFSUDP)
	sfs := run(KindSFS)
	noCache := run(KindSFSNoCache)
	// Ordering: Local < NFS < SFS < SFS-without-enhanced-caching.
	if local >= nfsUDP {
		t.Errorf("Local (%v) not faster than NFS (%v)", local, nfsUDP)
	}
	if sfs >= noCache {
		t.Errorf("enhanced caching not helping: %v vs %v", sfs, noCache)
	}
	// The paper: SFS only ~11%% slower than NFS on MAB. Allow a wide
	// band but require the same ballpark (under 2x).
	if sfs > 2*nfsUDP {
		t.Errorf("SFS MAB total %v more than 2x NFS %v", sfs, nfsUDP)
	}
}

func TestFig8SpriteSmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(kind StackKind) map[string]time.Duration {
		st := buildOrSkip(t, kind)
		results, err := SpriteSmall(st, 100, 1024)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]time.Duration{}
		for _, r := range results {
			out[r.Phase] = r.Elapsed
		}
		return out
	}
	nfs := run(KindNFSUDP)
	sfs := run(KindSFS)
	// Read phase: SFS pays its latency (paper: 3x slower).
	if sfs["read"] <= nfs["read"] {
		t.Errorf("SFS read (%v) not above NFS (%v)", sfs["read"], nfs["read"])
	}
	// Unlink: dominated by synchronous disk writes; within 2x.
	ratio := float64(sfs["unlink"]) / float64(nfs["unlink"])
	if ratio > 2 || ratio < 0.5 {
		t.Errorf("unlink should be disk-bound on both: NFS %v, SFS %v", nfs["unlink"], sfs["unlink"])
	}
	// Create: attribute caching keeps SFS within 2x of NFS.
	if float64(sfs["create"]) > 2*float64(nfs["create"]) {
		t.Errorf("SFS create (%v) more than 2x NFS (%v)", sfs["create"], nfs["create"])
	}
}

func TestFig9SpriteLargeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(kind StackKind) map[string]time.Duration {
		st := buildOrSkip(t, kind)
		results, err := SpriteLarge(st, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]time.Duration{}
		for _, r := range results {
			out[r.Phase] = r.Elapsed
		}
		return out
	}
	nfs := run(KindNFSUDP)
	sfs := run(KindSFS)
	noenc := run(KindSFSNoEnc)
	// Sequential write: SFS slower than NFS (paper +44%).
	if sfs["seq write"] <= nfs["seq write"] {
		t.Errorf("SFS seq write (%v) not above NFS (%v)", sfs["seq write"], nfs["seq write"])
	}
	// Sequential read: the biggest gap (paper +145%).
	if sfs["seq read"] <= nfs["seq read"] {
		t.Errorf("SFS seq read (%v) not above NFS (%v)", sfs["seq read"], nfs["seq read"])
	}
	// Disabling encryption recovers part of both.
	if noenc["seq read"] >= sfs["seq read"] {
		t.Errorf("no-enc seq read (%v) not below SFS (%v)", noenc["seq read"], sfs["seq read"])
	}
}

func TestFig9WriteBehindAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	measure := func(window int) time.Duration {
		fs, _ := newEraFS()
		ccfg := paperClient
		ccfg.WriteBehind = window
		st, err := NewSFS(fs, ccfg, paperServed)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		f, err := st.Create("large.bin")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8192)
		r, err := timed(st, "seq write", func() error {
			for off := int64(0); off < 4<<20; off += 8192 {
				if _, err := f.WriteAt(buf, uint64(off)); err != nil {
					return err
				}
			}
			return f.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Elapsed
	}
	serial := measure(-1)   // one synchronous WRITE per chunk
	pipelined := measure(0) // default window of 8 unstable WRITEs
	t.Logf("sequential 8KB writes: %v serial, %v with write-behind", serial, pipelined)
	// Write-behind overlaps per-RPC latency across the window; it must
	// not be slower, and on the shaped link it should win clearly.
	if pipelined >= serial {
		t.Errorf("write-behind shows no benefit: %v vs %v", pipelined, serial)
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
		ID:    "Figure 9 (write-behind ablation)",
		Title: "t",
		Rows:  []FigureRow{{Stack: "window 8", Phase: "seq write", Value: 1.5, Unit: "s", RPCs: 7}},
		Counters: map[string]nfspkg.ServerStats{
			"window 8": {SyncWrites: 1, Commits: 2},
		},
	}
	if got := f.Slug(); got != "figure-9-write-behind-ablation" {
		t.Fatalf("Slug = %q", got)
	}
	dir := t.TempDir()
	path, err := f.WriteJSON(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back jsonFigure
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != f.ID || !back.Quick || len(back.Rows) != 1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	r := back.Rows[0]
	if r.Stack != "window 8" || r.Value != 1.5 || r.RPCs != 7 || r.Paper != 0 {
		t.Fatalf("row mismatch: %+v", r)
	}
	c, ok := back.Counters["window 8"]
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
	if _, ok := f.RowFor("SFS", "latency"); !ok {
		t.Fatal("RowFor missed")
	}
	if _, ok := f.RowFor("SFS", "nope"); ok {
		t.Fatal("RowFor false positive")
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
