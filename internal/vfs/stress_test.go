package vfs

// Race stress for the sharded lock hierarchy: namespace operations
// (Create/Rename/Remove) interleave with the data path
// (Read/Write/Commit) on the same directories, including the
// cross-directory rename pattern whose naive "directories first" lock
// order deadlocks. These tests assert semantics loosely — the real
// assertion is that `go test -race ./internal/vfs` stays quiet and
// nothing deadlocks.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage/diskstore"
	"repro/internal/storage/wal"
)

// TestStressNamespaceVsData runs writers, readers, committers, and
// renamers over a small set of shared directories and files.
func TestStressNamespaceVsData(t *testing.T) {
	fs := New()
	cred := Cred{UID: 0}

	// Two directories whose ids bracket the files created later, so
	// renames exercise both the in-order fast path and the
	// release-and-retry restart path.
	dirA, _, err := fs.Mkdir(cred, fs.Root(), "a", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	dirB, _, err := fs.Mkdir(cred, fs.Root(), "b", 0o755)
	if err != nil {
		t.Fatal(err)
	}

	const nFiles = 8
	files := make([]FileID, nFiles)
	for i := range files {
		id, _, err := fs.Create(cred, dirA, "shared"+string(rune('0'+i)), 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = id
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Data path: hammer the shared files. ErrStale is fine — a
	// renamer/remover may retire a file mid-flight.
	buf := make([]byte, 512)
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				id := files[(i+g)%nFiles]
				var opErr error
				switch i % 4 {
				case 0:
					_, opErr = fs.Write(cred, id, uint64(i%7)*64, buf, false)
				case 1:
					_, _, opErr = fs.Read(cred, id, 0, 256)
				case 2:
					opErr = fs.Commit(id)
				case 3:
					_, opErr = fs.GetAttr(id)
				}
				if opErr != nil && !errors.Is(opErr, ErrStale) {
					t.Errorf("data path: %v", opErr)
					return
				}
			}
		}()
	}

	// Namespace churn in both directions between the two directories:
	// the deadlock-prone pattern if lock ordering were "from-dir
	// before to-dir" instead of ascending FileID.
	for g := 0; g < 2; g++ {
		g := g
		from, to := dirA, dirB
		if g == 1 {
			from, to = dirB, dirA
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := "churn" + string(rune('0'+g))
			for i := 0; !stopped(); i++ {
				if _, _, err := fs.Create(cred, from, name, 0o644, false); err != nil &&
					!errors.Is(err, ErrExist) && !errors.Is(err, ErrStale) {
					t.Errorf("create: %v", err)
					return
				}
				if err := fs.Rename(cred, from, name, to, name); err != nil &&
					!errors.Is(err, ErrNotFound) && !errors.Is(err, ErrStale) {
					t.Errorf("rename: %v", err)
					return
				}
				if err := fs.Remove(cred, to, name); err != nil &&
					!errors.Is(err, ErrNotFound) && !errors.Is(err, ErrStale) {
					t.Errorf("remove: %v", err)
					return
				}
			}
		}()
	}

	// One goroutine rotates the shared files themselves through
	// renames so the data-path goroutines race against entry moves of
	// the very nodes they hold.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stopped(); i++ {
			n := "shared" + string(rune('0'+i%nFiles))
			if err := fs.Rename(cred, dirA, n, dirB, n); err != nil &&
				!errors.Is(err, ErrNotFound) && !errors.Is(err, ErrStale) {
				t.Errorf("rotate out: %v", err)
				return
			}
			if err := fs.Rename(cred, dirB, n, dirA, n); err != nil &&
				!errors.Is(err, ErrNotFound) && !errors.Is(err, ErrStale) {
				t.Errorf("rotate back: %v", err)
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The shared files all survived the churn (renames only moved
	// them), and every file still reads back consistently.
	for _, id := range files {
		if _, err := fs.GetAttr(id); err != nil {
			t.Fatalf("shared file %d lost: %v", id, err)
		}
	}
}

// TestStressRestartVsWrite interleaves Restart — a real crash and
// replay of the disk store — with unstable writes and commits: the
// verifier must change across each restart, and no write may observe
// torn data. A COMMIT that loses the race to the crash fails with the
// closed journal's error, as a real crash fails it; any other error
// fails the test.
func TestStressRestartVsWrite(t *testing.T) {
	fs, ds := newDiskFS(t, t.TempDir(), diskstore.Options{})
	defer ds.Close()
	cred := Cred{UID: 0}
	id, _, err := fs.Create(cred, fs.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Commit(id); err != nil { // the file outlives every crash
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = 0xab
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fs.Write(cred, id, 0, payload, i%8 == 0); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if i%16 == 0 {
				if err := fs.Commit(id); err != nil && !strings.Contains(err.Error(), wal.ErrClosed.Error()) {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 20; i++ {
		before := fs.Verifier()
		if err := fs.Restart(); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		if fs.Verifier() == before {
			t.Error("verifier unchanged across restart")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Post-churn, the file is either empty (the crash lost every
	// write) or holds the payload prefix — never torn garbage.
	data, _, err := fs.Read(cred, id, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0xab {
			t.Fatalf("byte %d = %#x, want 0xab", i, b)
		}
	}
}

// TestLockStatsSnapshot checks that the contention counters move and
// aggregate sanely under parallel load.
func TestLockStatsSnapshot(t *testing.T) {
	fs := New()
	cred := Cred{UID: 0}
	id, _, err := fs.Create(cred, fs.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := fs.Write(cred, id, 0, []byte("x"), false); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := fs.LockStatsSnapshot()
	if st.NodeLocks == 0 || st.MapLocks == 0 {
		t.Fatalf("counters never moved: %+v", st)
	}
	var fromShards uint64
	for _, sh := range st.Shards {
		fromShards += sh.NodeContended
	}
	if fromShards != st.NodeContended {
		t.Fatalf("per-shard contention %d != total %d", fromShards, st.NodeContended)
	}
}
