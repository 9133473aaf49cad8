package diskstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/storage"
)

// breakJournal makes every later write to the store's open journal
// descriptor fail, the way a dying disk would: it finds the descriptor
// through /proc and points it at a read-only open of /dev/null. The
// number stays allocated, so nothing else can be handed it.
func breakJournal(t *testing.T, dir string) {
	t.Helper()
	want := filepath.Join(dir, LogName)
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, e := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == want {
			var fd int
			fmt.Sscan(e.Name(), &fd)
			if err := syscall.Dup3(int(null.Fd()), fd, 0); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no open descriptor for %s", want)
}

// TestJournalFailureIsSurfaced: once the journal fail-stops, every
// mutation and every checkpoint phase reports it, the stats count it,
// and a restart serves exactly what had been acknowledged.
func TestJournalFailureIsSurfaced(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	drainReplay(t, s)
	if err := s.WriteAt(2, 0, []byte("acked"), true, 1); err != nil {
		t.Fatal(err)
	}
	breakJournal(t, dir)
	if err := s.WriteAt(2, 5, []byte("|lost"), false, 2); err != nil {
		t.Fatalf("buffered write = %v; the failure is only met at the flush", err)
	}
	if err := s.Commit(2); err == nil {
		t.Fatal("Commit over a failing journal returned nil")
	}
	if err := s.WriteAt(2, 5, []byte("|more"), false, 3); err == nil {
		t.Fatal("write accepted after the journal fail-stopped")
	}
	if err := s.Commit(2); err == nil {
		t.Fatal("second Commit returned nil: the lost batch was reported durable")
	}
	if err := s.PrepareCheckpoint(); err == nil {
		t.Fatal("PrepareCheckpoint over a failed journal returned nil")
	}
	if _, err := s.Checkpoint(3, 1, func(emit func(*storage.NodeRecord) error) error {
		n := regNode(2, 10)
		return emit(&n)
	}); err == nil {
		t.Fatal("Checkpoint over a failed journal returned nil")
	}
	st := s.StorageStats()
	if st.WALFailures < 5 {
		t.Fatalf("wal_failures = %d, want one per failed or refused call (5)", st.WALFailures)
	}
	if st.Checkpoint.Failures != 2 || st.Checkpoint.Count != 0 {
		t.Fatalf("checkpoint block = %+v, want 2 failures and no image", st.Checkpoint)
	}

	if err := s.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	drainReplay(t, s)
	p := make([]byte, 5)
	if err := s.ReadAt(2, 0, p); err != nil || !bytes.Equal(p, []byte("acked")) {
		t.Fatalf("after restart = %q, %v; want the acknowledged write", p, err)
	}
	if err := s.ReadAt(2, 0, make([]byte, 6)); err == nil {
		t.Fatal("a write the journal never took survived the restart")
	}
	if st := s.StorageStats(); st.WALFailures != 0 {
		t.Fatalf("wal_failures = %d on the reopened journal, want 0", st.WALFailures)
	}
	if err := s.WriteAt(2, 5, []byte("|again"), true, 4); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
}
