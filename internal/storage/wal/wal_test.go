package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, path string, opts Options) (*WAL, [][]byte) {
	t.Helper()
	w, replayed, seqs := openSeqT(t, path, opts)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("replay seqs not contiguous: %v", seqs)
		}
	}
	return w, replayed
}

func openSeqT(t *testing.T, path string, opts Options) (*WAL, [][]byte, []uint64) {
	t.Helper()
	var replayed [][]byte
	var seqs []uint64
	w, err := Open(path, opts, func(seq uint64, p []byte) error {
		replayed = append(replayed, append([]byte(nil), p...))
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w, replayed, seqs
}

func appendT(t *testing.T, w *WAL, payload string) {
	t.Helper()
	if err := w.Append(len(payload), func(dst []byte) { copy(dst, payload) }); err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
}

// crashBuffered crashes w after checking the premise of every test
// that crashes with records past its last Flush or Sync: its appends
// total less than DefaultAutoFlush, so Append never spilled them and
// the crash loses them.
func crashBuffered(t *testing.T, w *WAL) {
	t.Helper()
	if got := w.StatsSnapshot().AppendBytes; got >= DefaultAutoFlush {
		t.Fatalf("appends total %d bytes, not below the %d-byte spill mark: the tail did not stay buffered", got, DefaultAutoFlush)
	}
	if err := w.Crash(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, replayed := openT(t, path, Options{})
	if len(replayed) != 0 {
		t.Fatalf("fresh log replayed %d records", len(replayed))
	}
	want := []string{"alpha", "bravo", "charlie"}
	for _, s := range want {
		appendT(t, w, s)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, replayed := openT(t, path, Options{})
	defer w2.Close()
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(want))
	}
	for i, s := range want {
		if string(replayed[i]) != s {
			t.Fatalf("record %d = %q, want %q", i, replayed[i], s)
		}
	}
	ri := w2.ReplayInfo()
	if ri.Records != 3 || ri.Truncated {
		t.Fatalf("ReplayInfo = %+v, want 3 records, no truncation", ri)
	}
}

func TestEpochIncrementsAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var epochs []uint64
	for i := 0; i < 3; i++ {
		w, _ := openT(t, path, Options{})
		epochs = append(epochs, w.Epoch())
		appendT(t, w, "x")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range epochs {
		if want := uint64(i + 1); e != want {
			t.Fatalf("open %d: epoch %d, want %d", i, e, want)
		}
	}
}

func TestCrashDropsBufferedKeepsFlushed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "survives-sync")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	appendT(t, w, "survives-flush")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	appendT(t, w, "lost-in-buffer")
	crashBuffered(t, w)
	if err := w.Append(1, func(dst []byte) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Crash = %v, want ErrClosed", err)
	}

	w2, replayed := openT(t, path, Options{})
	defer w2.Close()
	want := []string{"survives-sync", "survives-flush"}
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d records %q, want %q", len(replayed), replayed, want)
	}
	for i, s := range want {
		if string(replayed[i]) != s {
			t.Fatalf("record %d = %q, want %q", i, replayed[i], s)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "intact-one")
	appendT(t, w, "intact-two")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append garbage that looks like the
	// start of a frame but is cut off.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, path)

	w2, replayed := openT(t, path, Options{})
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records, want 2", len(replayed))
	}
	if !w2.ReplayInfo().Truncated {
		t.Fatal("ReplayInfo.Truncated = false, want true")
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if after := fileSize(t, path); after >= sizeBefore {
		t.Fatalf("torn tail not truncated: size %d -> %d", sizeBefore, after)
	}

	// And a corrupt (bit-flipped) record is also cut, with everything
	// before it preserved.
	w3, _ := openT(t, path, Options{})
	appendT(t, w3, "to-be-corrupted")
	if err := w3.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	w4, replayed := openT(t, path, Options{})
	defer w4.Close()
	if len(replayed) != 2 || !w4.ReplayInfo().Truncated {
		t.Fatalf("after bit flip: replayed %d (truncated=%v), want 2 (true)",
			len(replayed), w4.ReplayInfo().Truncated)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestRotateChainReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "alpha")
	appendT(t, w, "bravo")
	if _, err := w.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if got := w.LiveBytes(); got != 0 {
		t.Fatalf("LiveBytes after Rotate = %d, want 0", got)
	}
	appendT(t, w, "charlie")
	appendT(t, w, "delta")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// A full-chain open replays both segments, oldest first, with
	// contiguous seqs starting at 1.
	w2, replayed, seqs := openSeqT(t, path, Options{})
	want := []string{"alpha", "bravo", "charlie", "delta"}
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d records %q, want %q", len(replayed), replayed, want)
	}
	for i, s := range want {
		if string(replayed[i]) != s || seqs[i] != uint64(i+1) {
			t.Fatalf("record %d = %q seq %d, want %q seq %d", i, replayed[i], seqs[i], s, i+1)
		}
	}
	if w2.ChainBase() != 0 || w2.Seq() != 4 {
		t.Fatalf("ChainBase=%d Seq=%d, want 0, 4", w2.ChainBase(), w2.Seq())
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// With SkipBelow at the rotation point the sealed segment is not
	// even read: only the current segment's records come back.
	w3, replayed, seqs := openSeqT(t, path, Options{SkipBelow: 2})
	defer w3.Close()
	if len(replayed) != 2 || string(replayed[0]) != "charlie" || seqs[0] != 3 {
		t.Fatalf("skip open replayed %q seqs %v, want [charlie delta] from seq 3", replayed, seqs)
	}
	if w3.ChainBase() != 0 {
		t.Fatalf("ChainBase = %d, want 0 (.prev retained for fallback)", w3.ChainBase())
	}
}

func TestRotateDiscardsOldestSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "first-gen")
	if freed, err := w.Rotate(); err != nil || freed != 0 {
		t.Fatalf("first Rotate: freed=%d err=%v, want 0, nil", freed, err)
	}
	appendT(t, w, "second-gen")
	freed, err := w.Rotate()
	if err != nil {
		t.Fatalf("second Rotate: %v", err)
	}
	if freed == 0 {
		t.Fatal("second Rotate freed 0 bytes, want the first generation's size")
	}
	appendT(t, w, "third-gen")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the records still in the two live segments replay; the
	// caller's image is presumed to cover the discarded one.
	w2, replayed, seqs := openSeqT(t, path, Options{SkipBelow: 1})
	defer w2.Close()
	if len(replayed) != 2 || seqs[0] != 2 || w2.ChainBase() != 1 {
		t.Fatalf("replayed %q seqs %v chainBase %d, want 2 records from seq 2, base 1",
			replayed, seqs, w2.ChainBase())
	}
}

func TestInterruptedRotationCompletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "pre-crash")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash window: the old segment was renamed to .prev but the new
	// current segment never got its header.
	if err := os.Rename(path, path+".prev"); err != nil {
		t.Fatal(err)
	}
	w2, replayed, seqs := openSeqT(t, path, Options{})
	if len(replayed) != 1 || seqs[0] != 1 {
		t.Fatalf("replayed %q seqs %v, want [pre-crash] at seq 1", replayed, seqs)
	}
	appendT(t, w2, "post-recovery")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, replayed, seqs := openSeqT(t, path, Options{})
	defer w3.Close()
	if len(replayed) != 2 || seqs[1] != 2 {
		t.Fatalf("after recovery: replayed %q seqs %v, want both records", replayed, seqs)
	}
}

// TestOpenRebasesAboveImageCoverage: a crash publishes a checkpoint
// image covering buffered records, then loses them before the WAL
// rotates. Open must not let fresh appends reuse seqs the image
// covers — the caller's replay filter would silently drop them at the
// next boot, losing acknowledged writes.
func TestOpenRebasesAboveImageCoverage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "durable-1")
	appendT(t, w, "durable-2")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	appendT(t, w, "buffered-lost") // covered by the image, lost in the crash
	crashBuffered(t, w)

	// The image claims coverage through seq 3; the durable tail ends at
	// seq 2. Open must complete the crashed rotation: seal the segment
	// into .prev and base the fresh one at 3.
	w2, replayed, _ := openSeqT(t, path, Options{SkipBelow: 3})
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records %q, want the 2 durable ones", len(replayed), replayed)
	}
	if got := w2.Seq(); got != 3 {
		t.Fatalf("Seq after rebase = %d, want 3 (the image's coverage)", got)
	}
	if _, err := os.Stat(path + ".prev"); err != nil {
		t.Fatalf("sealed segment missing: %v", err)
	}
	appendT(t, w2, "acked-after-image")
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Next boot, same image: the post-image record must replay with a
	// seq above the image's coverage so the caller's filter keeps it.
	w3, replayed, seqs := openSeqT(t, path, Options{SkipBelow: 3})
	defer w3.Close()
	if len(replayed) != 1 || string(replayed[0]) != "acked-after-image" {
		t.Fatalf("replayed %q, want just the post-image record", replayed)
	}
	if seqs[0] <= 3 {
		t.Fatalf("post-image record replayed at seq %d, want > 3", seqs[0])
	}
}

// TestOpenIgnoresStaleRotateTemp: a crash between creating the .next
// temp segment and the rotation renames leaves the temp behind; Open
// must discard it and recover the chain untouched.
func TestOpenIgnoresStaleRotateTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "kept")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".next", []byte("half-built segment"), 0o600); err != nil {
		t.Fatal(err)
	}
	w2, replayed, _ := openSeqT(t, path, Options{})
	defer w2.Close()
	if len(replayed) != 1 || string(replayed[0]) != "kept" {
		t.Fatalf("replayed %q, want [kept]", replayed)
	}
	if _, err := os.Stat(path + ".next"); !os.IsNotExist(err) {
		t.Fatalf("stale .next temp not removed: %v", err)
	}
}

func TestCorruptPrevKeepsValidPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "keep-me")
	appendT(t, w, "corrupt-me")
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendT(t, w, "past-the-gap")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path + ".prev")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path+".prev", data, 0o600); err != nil {
		t.Fatal(err)
	}
	// Without an image covering the sealed segment, recovery keeps the
	// intact prefix of .prev and must drop the current segment too:
	// applying records past a seq gap would corrupt state.
	w2, replayed, seqs := openSeqT(t, path, Options{})
	if len(replayed) != 1 || string(replayed[0]) != "keep-me" || seqs[0] != 1 {
		t.Fatalf("replayed %q seqs %v, want [keep-me] at seq 1", replayed, seqs)
	}
	if !w2.ReplayInfo().Truncated {
		t.Fatal("ReplayInfo.Truncated = false, want true")
	}
	appendT(t, w2, "new-life")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, replayed, _ := openSeqT(t, path, Options{})
	defer w3.Close()
	if len(replayed) != 2 || string(replayed[1]) != "new-life" {
		t.Fatalf("after reopen: replayed %q, want [keep-me new-life]", replayed)
	}
}

func TestCorruptHeaderNeverPanics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "one")
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendT(t, w, "two")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the current segment's baseSeq field: the
	// header CRC must reject it, demoting the segment instead of
	// renumbering its records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[16] ^= 0x04
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	w2, replayed, seqs := openSeqT(t, path, Options{})
	defer w2.Close()
	if len(replayed) != 1 || string(replayed[0]) != "one" || seqs[0] != 1 {
		t.Fatalf("replayed %q seqs %v, want just [one] from .prev", replayed, seqs)
	}
	if !w2.ReplayInfo().Truncated {
		t.Fatal("ReplayInfo.Truncated = false, want true")
	}
}

func TestGroupCommitCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	defer w.Close()
	headerFsyncs := w.StatsSnapshot().Fsyncs // Open fsyncs the header

	const n = 8
	for i := 0; i < n; i++ {
		appendT(t, w, fmt.Sprintf("record-%d", i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.StatsSnapshot()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	if got := st.Fsyncs - headerFsyncs; got != 1 {
		t.Fatalf("Fsyncs for one batched Sync = %d, want 1", got)
	}
	if st.Batch.Count != 1 {
		t.Fatalf("batch histogram count = %d, want 1", st.Batch.Count)
	}
	// A Sync with nothing new must not fsync again.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if again := w.StatsSnapshot().Fsyncs; again != st.Fsyncs {
		t.Fatalf("no-op Sync added fsyncs: %d -> %d", st.Fsyncs, again)
	}
}

func TestConcurrentAppendSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	const (
		goroutines = 8
		perG       = 50
	)
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := fmt.Sprintf("g%d-%d", g, i)
				if err := w.Append(len(payload), func(dst []byte) { copy(dst, payload) }); err != nil {
					errs[g] = err
					return
				}
				if i%10 == 9 {
					if err := w.Sync(); err != nil {
						errs[g] = err
						return
					}
				}
			}
			errs[g] = w.Sync()
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, replayed := openT(t, path, Options{})
	defer w2.Close()
	if len(replayed) != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", len(replayed), goroutines*perG)
	}
}

// TestAppendNoAlloc hard-fails if the append hot path allocates: the
// satellite-6 requirement. Buffer growth amortizes to zero once the
// buffer has reached steady state, so the pre-warm loop runs first.
func TestAppendNoAlloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	defer w.Close()
	payload := make([]byte, 256)
	// Pre-warm: grow the buffer past what the measured loop needs.
	for i := 0; i < 64; i++ {
		if err := w.Append(len(payload), func(dst []byte) { copy(dst, payload) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fill := func(dst []byte) { copy(dst, payload) }
	allocs := testing.AllocsPerRun(32, func() {
		if err := w.Append(len(payload), fill); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Append allocates %.1f objects per op, want 0", allocs)
	}
}

// TestFailedWriteIsFailStop: a batch whose write(2) failed is gone, and
// records are numbered by position, so the log must refuse everything
// after it. At 5ac18af the third Sync returned nil with synced = 3 and
// a reopen replayed A, C as seqs 1, 2.
func TestFailedWriteIsFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "A")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	good := w.f
	w.f = ro // every write now fails with EBADF
	appendT(t, w, "B")
	first := w.Sync()
	if first == nil {
		t.Fatal("Sync over a failing write returned nil")
	}
	w.f = good

	if err := w.Append(1, func(dst []byte) { dst[0] = 'C' }); !errors.Is(err, first) {
		t.Fatalf("Append after the failure = %v, want the first error %v", err, first)
	}
	for name, op := range map[string]func() error{
		"Flush":  w.Flush,
		"Sync":   w.Sync,
		"Rotate": func() error { _, err := w.Rotate(); return err },
	} {
		if err := op(); !errors.Is(err, first) {
			t.Fatalf("%s after the failure = %v, want the first error %v", name, err, first)
		}
	}
	if got := w.synced.Load(); got != 1 {
		t.Fatalf("synced = %d after a failed batch, want 1 (the last good watermark)", got)
	}
	if got := w.StatsSnapshot().Failures; got < 5 {
		t.Fatalf("Failures = %d, want one per failed or refused call (5)", got)
	}
	if err := w.Close(); !errors.Is(err, first) {
		t.Fatalf("Close of a failed log = %v, want the first error", err)
	}

	w2, replayed, seqs := openSeqT(t, path, Options{})
	defer w2.Close()
	if len(replayed) != 1 || string(replayed[0]) != "A" || seqs[0] != 1 {
		t.Fatalf("reopen replayed %q at seqs %v, want only A at seq 1", replayed, seqs)
	}
}

// TestFailedFsyncIsFailStop: after a failed fsync the kernel may have
// dropped the dirty pages, so a later successful fsync proves nothing
// about them.
func TestFailedFsyncIsFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "A")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	good := w.f
	closed, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	w.f = closed // fsync of a closed descriptor fails
	first := w.Sync()
	if first == nil {
		t.Fatal("Sync over a failing fsync returned nil")
	}
	w.f = good
	if err := w.Sync(); !errors.Is(err, first) {
		t.Fatalf("second Sync = %v, want the first error %v", err, first)
	}
	if got := w.synced.Load(); got != 0 {
		t.Fatalf("synced = %d, want 0", got)
	}
	w.Close() //nolint:errcheck // reports the sticky error, checked above
}

// within fails the test unless f returns soon; the bound only decides
// how long a deadlock takes to report.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// TestAppendSpillsDuringSync: an fsync in flight is the leader holding
// syncMu. An appender that crosses the auto-flush mark then must write
// its batch and return — it holds a vfs file lock while it does — and
// the durable watermark must not move for it.
func TestAppendSpillsDuringSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	appendT(t, w, "synced")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	flushes := w.StatsSnapshot().Flushes

	w.syncMu.Lock()
	within(t, "Append across the auto-flush mark with the sync leader lock held", func() {
		appendT(t, w, string(make([]byte, DefaultAutoFlush)))
	})
	w.flushMu.Lock()
	written := w.written
	w.flushMu.Unlock()
	if written != 2 {
		t.Fatalf("written = %d, want 2: the append did not spill", written)
	}
	if got := w.StatsSnapshot().Flushes - flushes; got != 1 {
		t.Fatalf("flushes for one append past the spill mark = %d, want 1", got)
	}
	if got := w.synced.Load(); got != 1 {
		t.Fatalf("synced = %d with no fsync since record 1, want 1", got)
	}

	// A Rotate must wait for the leader: it swaps the file the leader
	// is fsyncing.
	rotated := make(chan error, 1)
	go func() { _, err := w.Rotate(); rotated <- err }()
	select {
	case err := <-rotated:
		t.Fatalf("Rotate finished (%v) while a sync leader held the log", err)
	case <-time.After(50 * time.Millisecond):
	}
	w.syncMu.Unlock()
	within(t, "Rotate after the leader left", func() {
		if err := <-rotated; err != nil {
			t.Errorf("Rotate: %v", err)
		}
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncedNeverPassesWritten races spilling appenders, syncers and
// rotations: the durable watermark may only ever name records a write
// had handed to the OS before the fsync that advanced it, every Sync
// must cover what was appended before it, and the chain must replay
// whole. Race-detector target.
func TestSyncedNeverPassesWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	// Each appender crosses the spill mark every 8 records of its own.
	const appenders, perG, size = 4, 200, DefaultAutoFlush / 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := w.Append(size, func(dst []byte) { dst[0] = 1 }); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if i%50 == 49 {
					before := w.Seq()
					if err := w.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
					if got := w.synced.Load(); got < before {
						t.Errorf("Sync returned with synced = %d, below the %d records appended before it", got, before)
					}
				}
			}
		}()
	}
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the checkpointer
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Rotate(); err != nil {
				t.Errorf("Rotate: %v", err)
				return
			}
			if err := w.Reclaim(); err != nil {
				t.Errorf("Reclaim: %v", err)
			}
		}
	}()
	go func() { // the invariant
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.flushMu.Lock()
			synced, written := w.synced.Load(), w.written
			w.flushMu.Unlock()
			if synced > written {
				t.Errorf("synced = %d passes written = %d", synced, written)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Rotations discarded the oldest segments; what remains must be a
	// contiguous run ending at the last record appended.
	w2, _, seqs := openSeqT(t, path, Options{SkipBelow: w.chainBase})
	defer w2.Close()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("replayed seqs not contiguous at %d: %d then %d", i, seqs[i-1], seqs[i])
		}
	}
	if w2.Seq() != appenders*perG {
		t.Fatalf("reopened Seq = %d, want %d", w2.Seq(), appenders*perG)
	}
}

// TestRotateKeepsDisplacedSegmentUntilReclaim: the segment pushed out
// of the .prev slot loses its name at once — recovery never sees three
// segments — but its blocks go only when Reclaim closes it.
func TestRotateKeepsDisplacedSegmentUntilReclaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := openT(t, path, Options{})
	defer w.Close()
	appendT(t, w, "first-gen")
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.displaced.Load() != nil {
		t.Fatal("first Rotate displaced a segment from an empty .prev slot")
	}
	appendT(t, w, "second-gen")
	freed, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	d := w.displaced.Load()
	if d == nil {
		t.Fatal("second Rotate kept no descriptor on the displaced segment")
	}
	if st, err := d.Stat(); err != nil || uint64(st.Size()) != freed {
		t.Fatalf("displaced segment stat = %v, %v; want the %d bytes Rotate reported", st, err, freed)
	}
	names, err := filepath.Glob(path + "*")
	if err != nil || len(names) != 2 {
		t.Fatalf("chain files = %v, %v; want exactly the live segment and .prev", names, err)
	}
	if err := w.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if w.displaced.Load() != nil {
		t.Fatal("Reclaim left the descriptor behind")
	}
	if err := w.Reclaim(); err != nil {
		t.Fatalf("second Reclaim = %v, want a no-op", err)
	}
}
