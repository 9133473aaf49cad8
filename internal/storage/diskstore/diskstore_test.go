package diskstore

import (
	"bytes"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/wal"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// drainReplay consumes the pending record list the way
// vfs.NewWithStores does, returning the records.
func drainReplay(t *testing.T, s *Store) []storage.Record {
	t.Helper()
	var recs []storage.Record
	if _, err := s.Replay(func(r storage.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

// belowSpill checks the premise of a test that expects a crash to lose
// its unstable writes: the journal's appends total less than
// wal.DefaultAutoFlush, so none spilled to the OS.
func belowSpill(t *testing.T, s *Store) {
	t.Helper()
	if got := s.StorageStats().WALBytes; got >= wal.DefaultAutoFlush {
		t.Fatalf("journal appends total %d bytes, not below the %d-byte spill mark: the unstable tail did not stay buffered", got, wal.DefaultAutoFlush)
	}
}

func TestPersistAcrossCloseOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	drainReplay(t, s)
	meta := &storage.MetaRecord{Op: storage.OpCreate, Dir: 1, Name: "f", ID: 2, Cookie: 7, Mode: 0o644}
	if err := s.LogMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(2, 0, []byte("persisted"), false, 11); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	recs := drainReplay(t, s2)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if m := recs[0].Meta; m == nil || m.Op != storage.OpCreate || m.Name != "f" || m.ID != 2 {
		t.Fatalf("record 0 = %+v, want the OpCreate", recs[0])
	}
	if d := recs[1].Data; d == nil || d.ID != 2 || d.Len != 9 {
		t.Fatalf("record 1 = %+v, want the data record", recs[1])
	}
	p := make([]byte, 9)
	if err := s2.ReadAt(2, 0, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, []byte("persisted")) {
		t.Fatalf("serving copy after reopen = %q", p)
	}
}

func TestCrashRestartDropsBufferedKeepsCommitted(t *testing.T) {
	dir := t.TempDir()
	// Uncommitted records stay in user space below the spill mark, so
	// the crash actually loses them.
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	if err := s.WriteAt(2, 0, []byte("committed"), false, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(3, 0, []byte("lost"), false, 2); err != nil {
		t.Fatal(err)
	}
	epochBefore := s.Epoch()

	belowSpill(t, s)
	if err := s.CrashRestart(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() <= epochBefore {
		t.Fatalf("epoch %d after crash, want > %d", s.Epoch(), epochBefore)
	}
	recs := drainReplay(t, s)
	if len(recs) != 1 {
		t.Fatalf("replayed %d records after crash, want 1 (the committed write)", len(recs))
	}
	p := make([]byte, 9)
	if err := s.ReadAt(2, 0, p); err != nil || !bytes.Equal(p, []byte("committed")) {
		t.Fatalf("committed content after crash = %q, %v", p, err)
	}
	if err := s.ReadAt(3, 0, make([]byte, 4)); err == nil {
		t.Fatal("uncommitted buffered write survived the crash")
	}

	// The store still works after the in-place restart.
	if err := s.WriteAt(4, 0, []byte("post-crash"), true, 3); err != nil {
		t.Fatal(err)
	}
	p = make([]byte, 10)
	if err := s.ReadAt(4, 0, p); err != nil || !bytes.Equal(p, []byte("post-crash")) {
		t.Fatalf("post-crash write = %q, %v", p, err)
	}
}

// TestReplayAppliesTruncates: an OpSetAttr with SetSize must resize
// the serving copy during the open scan, since content records before
// it may extend past the truncated size.
func TestReplayAppliesTruncates(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	drainReplay(t, s)
	if err := s.WriteAt(2, 0, []byte("0123456789"), true, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.LogMeta(&storage.MetaRecord{
		Op: storage.OpSetAttr, ID: 2, SetMask: storage.SetSize, Size: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	drainReplay(t, s2)
	if err := s2.ReadAt(2, 0, make([]byte, 10)); err == nil {
		t.Fatal("read past replayed truncate succeeded")
	}
	p := make([]byte, 4)
	if err := s2.ReadAt(2, 0, p); err != nil || !bytes.Equal(p, []byte("0123")) {
		t.Fatalf("replayed truncated content = %q, %v", p, err)
	}
}

func TestStorageStats(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	drainReplay(t, s)
	if err := s.WriteAt(2, 0, []byte("x"), false, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2); err != nil {
		t.Fatal(err)
	}
	st := s.StorageStats()
	if st.Kind != "disk" {
		t.Fatalf("Kind = %q", st.Kind)
	}
	if st.Epoch == 0 || st.WALAppends != 1 || st.Fsyncs == 0 {
		t.Fatalf("stats = %+v, want epoch>0, 1 append, fsyncs>0", st)
	}
}
