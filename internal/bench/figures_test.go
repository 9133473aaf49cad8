package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/storage"
)

// Stack labels as the figures print them.
const (
	labelLocal   = "Local"
	labelNFSUDP  = "NFS 3 (UDP)"
	labelNFSTCP  = "NFS 3 (TCP)"
	labelSFS     = "SFS"
	labelNoEnc   = "SFS w/o encryption"
	labelNoCache = "SFS w/o enhanced caching"
)

// figureChecks holds the shape check of every registered figure, keyed
// like Registry. Each asserts the paper's qualitative claims — who
// wins, roughly by how much — on the figure's Quick rows. Absolute
// numbers live in EXPERIMENTS.md; the bounds are loose so scheduler
// noise cannot flake them.
var figureChecks = map[string]func(*testing.T, *Figure){
	"5":        checkFig5,
	"6":        checkFig6,
	"7":        checkFig7,
	"8":        checkFig8,
	"9":        checkFig9,
	"recovery": checkRecovery,
}

// TestFigureShapes runs every registered figure at Quick size — the
// runs `sfsbench -quick` makes — and applies its shape check.
func TestFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, spec := range Registry {
		t.Run(SlugForID(spec.ID), func(t *testing.T) {
			check, ok := figureChecks[spec.Key]
			if !ok {
				t.Fatalf("figure %q has no shape check in figureChecks", spec.Key)
			}
			check(t, quickFigure(t, spec.Key))
		})
	}
}

// TestFig5LatencyShape holds Figure 5's latency claim on its own, so a
// regression names the half of the figure that moved.
func TestFig5LatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkFig5Latency(t, quickFigure(t, "5"))
}

// TestFig5ThroughputShape holds Figure 5's throughput claim on its own.
func TestFig5ThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	checkFig5Throughput(t, quickFigure(t, "5"))
}

var (
	quickMu   sync.Mutex
	quickRuns = map[string]*Figure{}
)

// quickFigure runs the registered figure key at Quick size once per
// test binary and hands every caller the same rows, so the per-claim
// tests cost no extra run.
func quickFigure(t *testing.T, key string) *Figure {
	t.Helper()
	quickMu.Lock()
	defer quickMu.Unlock()
	if fig, ok := quickRuns[key]; ok {
		return fig
	}
	i := slices.IndexFunc(Registry, func(s FigureSpec) bool { return s.Key == key })
	if i < 0 {
		t.Fatalf("no registered figure %q", key)
	}
	spec := Registry[i]
	fig, err := spec.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != spec.ID || !fig.Quick {
		t.Fatalf("figure %q ran as ID %q, Quick %v", spec.Key, fig.ID, fig.Quick)
	}
	quickRuns[key] = fig
	return fig
}

// rowFor returns the row for (stack, phase).
func (f *Figure) rowFor(stack, phase string) (FigureRow, bool) {
	for _, r := range f.Rows {
		if r.Stack == stack && r.Phase == phase {
			return r, true
		}
	}
	return FigureRow{}, false
}

// value returns the measured value of (stack, phase), failing t when
// the figure has no such row.
func value(t *testing.T, f *Figure, stack, phase string) float64 {
	t.Helper()
	r, ok := f.rowFor(stack, phase)
	if !ok {
		t.Fatalf("%s has no row (%s, %s)", f.ID, stack, phase)
	}
	return r.Value
}

func checkFig5(t *testing.T, f *Figure) {
	checkFig5Latency(t, f)
	checkFig5Throughput(t, f)
}

func checkFig5Latency(t *testing.T, f *Figure) {
	nfsUDP := value(t, f, labelNFSUDP, "latency")
	sfs := value(t, f, labelSFS, "latency")
	sfsNoEnc := value(t, f, labelNoEnc, "latency")
	// The paper: SFS ≈ 4x NFS latency; encryption ≈ 20 µs of it.
	if sfs < 2*nfsUDP {
		t.Errorf("SFS latency %v µs not clearly above NFS %v µs", sfs, nfsUDP)
	}
	if sfs > 10*nfsUDP {
		t.Errorf("SFS latency %v µs implausibly above NFS %v µs", sfs, nfsUDP)
	}
	// Encryption costs only ~20 µs of the ~800 µs total, so the two
	// configurations should be close; fail only on a gross inversion.
	if sfsNoEnc > sfs*3/2 {
		t.Errorf("disabling encryption made latency much worse: %v µs vs %v µs", sfsNoEnc, sfs)
	}
}

// checkFig5Throughput: NFS beats SFS on streaming; removing encryption
// recovers a chunk of it.
func checkFig5Throughput(t *testing.T, f *Figure) {
	nfsUDP := value(t, f, labelNFSUDP, "throughput")
	sfs := value(t, f, labelSFS, "throughput")
	sfsNoEnc := value(t, f, labelNoEnc, "throughput")
	if sfs >= nfsUDP {
		t.Errorf("SFS throughput %.1f MB/s not below NFS %.1f MB/s", sfs, nfsUDP)
	}
	if sfsNoEnc <= sfs {
		t.Errorf("encryption shows no throughput cost: %.1f vs %.1f MB/s", sfsNoEnc, sfs)
	}
}

func checkFig6(t *testing.T, f *Figure) {
	local := value(t, f, labelLocal, "total")
	nfsUDP := value(t, f, labelNFSUDP, "total")
	sfs := value(t, f, labelSFS, "total")
	noCache := value(t, f, labelNoCache, "total")
	// Ordering: Local < NFS, and SFS < SFS without enhanced caching.
	if local >= nfsUDP {
		t.Errorf("Local (%.2f s) not faster than NFS (%.2f s)", local, nfsUDP)
	}
	if sfs >= noCache {
		t.Errorf("enhanced caching not helping: %.2f s vs %.2f s", sfs, noCache)
	}
	// The paper: SFS only ~11% slower than NFS on MAB. Allow a wide
	// band but require the same ballpark (under 2x).
	if sfs > 2*nfsUDP {
		t.Errorf("SFS MAB total %.2f s more than 2x NFS %.2f s", sfs, nfsUDP)
	}
}

// checkFig7 holds the figure's headline: SFS beats NFS 3 over TCP on a
// real build, because attribute leases turn the header revalidations
// NFS sends as GETATTRs into client-cache hits.
func checkFig7(t *testing.T, f *Figure) {
	sfs, ok := f.rowFor(labelSFS, "compile")
	if !ok {
		t.Fatal("no SFS compile row")
	}
	tcp, ok := f.rowFor(labelNFSTCP, "compile")
	if !ok {
		t.Fatal("no NFS/TCP compile row")
	}
	if 5*sfs.RPCs > tcp.RPCs {
		t.Errorf("SFS compile sent %d RPCs, more than a fifth of NFS/TCP's %d", sfs.RPCs, tcp.RPCs)
	}
	if sfs.Value >= tcp.Value {
		t.Errorf("SFS compile %.2f s not below NFS/TCP %.2f s", sfs.Value, tcp.Value)
	}
}

func checkFig8(t *testing.T, f *Figure) {
	// Read phase: SFS pays its latency (paper: 3x slower).
	if sfs, nfs := value(t, f, labelSFS, "read"), value(t, f, labelNFSUDP, "read"); sfs <= nfs {
		t.Errorf("SFS read (%.3f s) not above NFS (%.3f s)", sfs, nfs)
	}
	// Unlink: dominated by synchronous disk writes; within 2x.
	sfs, nfs := value(t, f, labelSFS, "unlink"), value(t, f, labelNFSUDP, "unlink")
	if ratio := sfs / nfs; ratio > 2 || ratio < 0.5 {
		t.Errorf("unlink should be disk-bound on both: NFS %.3f s, SFS %.3f s", nfs, sfs)
	}
	// Create: attribute caching keeps SFS within 2x of NFS.
	if sfs, nfs := value(t, f, labelSFS, "create"), value(t, f, labelNFSUDP, "create"); sfs > 2*nfs {
		t.Errorf("SFS create (%.3f s) more than 2x NFS (%.3f s)", sfs, nfs)
	}
}

func checkFig9(t *testing.T, f *Figure) {
	// Sequential write: SFS slower than NFS (paper +44%).
	if sfs, nfs := value(t, f, labelSFS, "seq write"), value(t, f, labelNFSUDP, "seq write"); sfs <= nfs {
		t.Errorf("SFS seq write (%.2f s) not above NFS (%.2f s)", sfs, nfs)
	}
	// Sequential read: the biggest gap (paper +145%).
	sfs := value(t, f, labelSFS, "seq read")
	if nfs := value(t, f, labelNFSUDP, "seq read"); sfs <= nfs {
		t.Errorf("SFS seq read (%.2f s) not above NFS (%.2f s)", sfs, nfs)
	}
	// Disabling encryption recovers part of it.
	if noenc := value(t, f, labelNoEnc, "seq read"); noenc >= sfs {
		t.Errorf("no-enc seq read (%.2f s) not below SFS (%.2f s)", noenc, sfs)
	}
}

// checkRecovery asserts the crash-recovery figure's invariants: the
// verifier changed (enforced inside FigRecovery), zero
// acknowledged-COMMIT bytes lost, a non-empty WAL replay, a
// retransmitting post-crash sync, and the storage counter block in the
// figure's counter snapshot.
func checkRecovery(t *testing.T, fig *Figure) {
	const label = "SFS (disk store)"
	if lost := value(t, fig, label, "acked commits lost"); lost != 0 {
		t.Fatalf("acked commits lost = %v bytes, want 0", lost)
	}
	if replay := value(t, fig, label, "replay records"); replay <= 0 {
		t.Fatalf("replay records = %v, want a positive count", replay)
	}
	if sync, ok := fig.rowFor(label, "post-crash sync"); !ok || sync.RPCs == 0 {
		t.Fatalf("post-crash sync row = %+v (ok=%v), want retransmission RPCs", sync, ok)
	}
	ss, ok := fig.Counters[label]
	if !ok {
		t.Fatal("missing server counter snapshot")
	}
	if ss.Storage == nil {
		t.Fatal("counter snapshot has no storage block")
	}
	if ss.Storage.Kind != "disk" {
		t.Fatalf("storage kind = %q, want disk", ss.Storage.Kind)
	}
	if ss.Storage.Fsyncs == 0 {
		t.Fatal("storage fsyncs = 0, want > 0 (retransmitted COMMIT must fsync)")
	}
	if ss.Storage.ReplayRecords == 0 {
		t.Fatal("storage replay_records = 0, want > 0")
	}

	// Bounded-recovery rows (DESIGN.md §15). Byte-identical cold reads
	// are hard-asserted inside the figure; here the timed rows just
	// have to exist with sane values, and the checkpointed reboot must
	// replay fewer records than the journal-only one.
	journal := value(t, fig, label, "records replayed, 10x history (journal only)")
	tail := value(t, fig, label, "records replayed, 10x history (checkpointed tail)")
	if journal <= 0 || tail >= journal {
		t.Fatalf("records replayed after 10x history: %v journal only, %v after checkpoints; want fewer after checkpoints", journal, tail)
	}
	for _, phase := range []string{
		"replay 1x history (journal only)",
		"replay 10x history (journal only)",
		"replay 10x history (checkpointed)",
		"checkpoint image load",
	} {
		if v := value(t, fig, label, phase); v < 0 {
			t.Fatalf("row %q = %v, want a non-negative value", phase, v)
		}
	}
	// The cold read takes every block of the reopened dataset from the
	// extent file exactly once.
	dataset := value(t, fig, label, "cold-read dataset")
	if reads := value(t, fig, label, "cold-read extent reads"); reads != dataset/storage.BlockSize {
		t.Fatalf("cold read of %v bytes took %v extent reads, want one per block (%v)", dataset, reads, dataset/storage.BlockSize)
	}
}

// TestCommittedFiguresMatchWriter holds the BENCH_*.json files at the
// repository root to the writer: each decodes into Figure with no
// field the writer does not write, each is a full-size run of the
// figure its name says, and there is exactly one per registered
// figure.
func TestCommittedFiguresMatchWriter(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	ids := map[string]string{}
	for _, spec := range Registry {
		name := "BENCH_" + SlugForID(spec.ID) + ".json"
		want = append(want, name)
		ids[name] = spec.ID
	}
	for _, path := range paths {
		name := filepath.Base(path)
		got = append(got, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var fig Figure
		if err := dec.Decode(&fig); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if id, ok := ids[name]; ok && (fig.ID != id || fig.Quick) {
			t.Errorf("%s holds ID %q with quick=%v, want a full-size run of %q", name, fig.ID, fig.Quick, id)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("committed BENCH files %v, want exactly the registered figures' %v", got, want)
	}
}
