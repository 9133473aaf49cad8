package diskstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
)

// regNode builds the minimal node record a diskstore-level test needs:
// the checkpoint only uses IDs for liveness and hands the rest back
// through Replay untouched.
func regNode(id, size uint64) storage.NodeRecord {
	return storage.NodeRecord{ID: id, Type: 1, Mode: 0o644, Nlink: 1, Size: size}
}

func checkpointT(t *testing.T, s *Store, nextID, nextCookie uint64, nodes ...storage.NodeRecord) storage.CheckpointStats {
	t.Helper()
	st, err := s.Checkpoint(nextID, nextCookie, func(emit func(*storage.NodeRecord) error) error {
		for i := range nodes {
			if err := emit(&nodes[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return st
}

func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	drainReplay(t, s)
	if err := s.Write(2, 0, []byte("pre-checkpoint"), true, 1, nil); err != nil {
		t.Fatal(err)
	}
	st := checkpointT(t, s, 10, 20, regNode(2, 14))
	if st.Count != 1 || st.Bytes == 0 {
		t.Fatalf("checkpoint stats = %+v, want count 1 and a non-empty image", st)
	}
	if err := s.Write(3, 0, []byte("tail"), true, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	recs := drainReplay(t, s2)
	// The pre-checkpoint data record must NOT replay — only the image's
	// node record plus the tail write.
	if len(recs) != 2 {
		t.Fatalf("replayed %d records %+v, want node + 1 tail record", len(recs), recs)
	}
	if n := recs[0].Node; n == nil || n.ID != 2 || n.Size != 14 {
		t.Fatalf("record 0 = %+v, want the checkpointed node", recs[0])
	}
	if d := recs[1].Data; d == nil || d.ID != 3 {
		t.Fatalf("record 1 = %+v, want the tail data record", recs[1])
	}
	for id, want := range map[uint64]string{2: "pre-checkpoint", 3: "tail"} {
		p := make([]byte, len(want))
		if err := s2.ReadAt(id, 0, p); err != nil || !bytes.Equal(p, []byte(want)) {
			t.Fatalf("id %d after reopen = %q, %v", id, p, err)
		}
	}
	if nid, nck := s2.Watermarks(); nid != 10 || nck != 20 {
		t.Fatalf("Watermarks = %d, %d, want 10, 20", nid, nck)
	}
	rs := s2.StorageStats()
	if rs.Checkpoint == nil || rs.Checkpoint.Count != 1 {
		t.Fatalf("reopened stats lost checkpoint block: %+v", rs.Checkpoint)
	}
}

func TestCheckpointReplayStatsPhases(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	drainReplay(t, s)
	if err := s.Write(2, 0, bytes.Repeat([]byte("a"), 20000), true, 1, nil); err != nil {
		t.Fatal(err)
	}
	checkpointT(t, s, 3, 1, regNode(2, 20000))
	if err := s.Write(2, 0, []byte("tail-write"), true, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	var rs storage.ReplayStats
	var err error
	if rs, err = s2.Replay(func(storage.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if rs.CheckpointRecords == 0 || rs.CheckpointBytes == 0 {
		t.Fatalf("no checkpoint phase in %+v", rs)
	}
	if rs.TailRecords != 1 {
		t.Fatalf("TailRecords = %d, want 1", rs.TailRecords)
	}
	if rs.Records != rs.CheckpointRecords+rs.TailRecords || rs.Bytes != rs.CheckpointBytes+rs.TailBytes {
		t.Fatalf("combined fields are not sums: %+v", rs)
	}
}

func TestCheckpointFallbackToPrevImage(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	drainReplay(t, s)
	if err := s.Write(2, 0, []byte("first"), true, 1, nil); err != nil {
		t.Fatal(err)
	}
	checkpointT(t, s, 3, 1, regNode(2, 5))
	if err := s.Write(2, 5, []byte("+second"), true, 2, nil); err != nil {
		t.Fatal(err)
	}
	checkpointT(t, s, 3, 1, regNode(2, 12))
	if err := s.Write(2, 12, []byte("+tail"), true, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest image: boot must fall back to the previous
	// image and replay the longer tail, losing nothing.
	ckpt := filepath.Join(dir, CkptName)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x80
	if err := os.WriteFile(ckpt, data, 0o600); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	p := make([]byte, 17)
	if err := s2.ReadAt(2, 0, p); err != nil || !bytes.Equal(p, []byte("first+second+tail")) {
		t.Fatalf("content after image fallback = %q, %v", p, err)
	}
	drainReplay(t, s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatal("corrupt newest image was not deleted on fallback")
	}

	// Corrupting the remaining image too leaves a hole the journal
	// cannot fill: that must be a clean error, never a panic or silent
	// data loss.
	prev := filepath.Join(dir, CkptPrevName)
	data, err = os.ReadFile(prev)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x80
	if err := os.WriteFile(prev, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open with both images corrupt and a compacted journal succeeded")
	}
}

// TestUnreadableImageFailsOpen: an image that exists but cannot be
// read — here a directory stands where the newest image belongs — is
// no proof of corruption, so Open fails and deletes neither image.
// Once the image is readable again the store opens from it, losing
// nothing.
func TestUnreadableImageFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	drainReplay(t, s)
	content := fileContent(2, 3*storage.BlockSize)
	if err := s.Write(2, 0, content, true, 1, nil); err != nil {
		t.Fatal(err)
	}
	checkpointT(t, s, 3, 1, regNode(2, uint64(len(content))))
	checkpointT(t, s, 3, 1, regNode(2, uint64(len(content))))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, CkptName)
	if err := os.Rename(ckpt, ckpt+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(ckpt, 0o700); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, Options{}); err == nil {
		s.Close()
		t.Fatal("Open succeeded over an image it could not read")
	}
	for _, name := range []string{CkptName, CkptPrevName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s after the failed Open: %v", name, err)
		}
	}

	if err := os.Remove(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(ckpt+".aside", ckpt); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	drainReplay(t, s2)
	got := make([]byte, len(content))
	if err := s2.ReadAt(2, 0, got); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("content after the image came back: %v", err)
	}
}

// TestCheckpointAbortedMidProtocol kills the checkpoint at each stage
// of the commit protocol and proves recovery loses nothing: every
// acked write is served after reopen, whichever image generation boot
// lands on. The "prepared" stage dies after PrepareCheckpoint and
// before the exclusive section: it must recover exactly as if no
// checkpoint had begun.
func TestCheckpointAbortedMidProtocol(t *testing.T) {
	for _, stage := range []string{"prepared", "image", "rename-prev", "renamed"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir)
			drainReplay(t, s)
			if err := s.Write(2, 0, []byte("gen-one"), true, 1, nil); err != nil {
				t.Fatal(err)
			}
			// A completed first checkpoint so the aborted one exercises
			// the rename-prev path too.
			checkpointT(t, s, 3, 1, regNode(2, 7))
			if err := s.Write(2, 7, []byte("|gen-two"), true, 2, nil); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("crashed at " + stage)
			s.testAbort = func(at string) error {
				if at == stage {
					return boom
				}
				return nil
			}
			before := durableFiles(t, dir)
			err := s.PrepareCheckpoint()
			if err == nil {
				_, err = s.Checkpoint(3, 1, func(emit func(*storage.NodeRecord) error) error {
					n := regNode(2, 15)
					return emit(&n)
				})
			}
			if !errors.Is(err, boom) {
				t.Fatalf("aborted checkpoint returned %v, want %v", err, boom)
			}
			if st := s.StorageStats(); st.Checkpoint.Failures != 1 {
				t.Fatalf("checkpoint failures = %d, want 1", st.Checkpoint.Failures)
			}
			// Kill the process image: crash the WAL, drop the store, and
			// reopen the directory as a fresh boot would.
			if err := s.w.Crash(); err != nil {
				t.Fatal(err)
			}
			s.pg.close()
			if stage == "prepared" {
				// Prepare writes slots and fsyncs. Every write above was
				// stable, so it had nothing to add to the journal either:
				// no file recovery parses may differ.
				if after := durableFiles(t, dir); !reflect.DeepEqual(before, after) {
					t.Fatalf("prepare changed what recovery reads:\nbefore %v\nafter  %v", before, after)
				}
			}

			s2 := openT(t, dir)
			defer s2.Close()
			recs := drainReplay(t, s2)
			if stage == "prepared" && (len(recs) != 2 || recs[0].Node == nil || recs[1].Data == nil) {
				t.Fatalf("boot after a crash in prepare replayed %+v; want the first image's node and the one write after it", recs)
			}
			p := make([]byte, 15)
			if err := s2.ReadAt(2, 0, p); err != nil || !bytes.Equal(p, []byte("gen-one|gen-two")) {
				t.Fatalf("stage %s: content after crash = %q, %v", stage, p, err)
			}
			// And the store must be able to checkpoint again cleanly.
			checkpointT(t, s2, 3, 1, regNode(2, 15))
		})
	}
}

// durableFiles reads every file recovery parses: both images and both
// journal segments (the extent file is only ever read through an
// image's index).
func durableFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	for _, name := range []string{CkptName, CkptPrevName, CkptTmpName, LogName, LogName + ".prev", LogName + ".next"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			files[name] = string(data)
		} else if !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	return files
}

// TestCheckpointAbortedWithUnstableTail crashes right after the image
// rename — before the WAL rotates — while unstable (buffered) writes
// are in flight, optionally also tearing the journal's durable tail.
// The published image then covers seqs the surviving WAL never
// reaches; recovery must rebase the seq space above the image so
// writes acked AFTER the crash are not silently dropped by the next
// boot's replay filter.
func TestCheckpointAbortedWithUnstableTail(t *testing.T) {
	for _, tearTail := range []bool{false, true} {
		name := "buffered"
		if tearTail {
			name = "torn-durable-tail"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			drainReplay(t, s)
			if err := s.Write(2, 0, []byte("acked"), true, 1, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(2, 5, []byte("|unstable"), false, 2, nil); err != nil {
				t.Fatal(err)
			}
			boom := errors.New("crashed after image rename")
			s.testAbort = func(at string) error {
				if at == "renamed" {
					return boom
				}
				return nil
			}
			_, err = s.Checkpoint(3, 1, func(emit func(*storage.NodeRecord) error) error {
				n := regNode(2, 14)
				return emit(&n)
			})
			if !errors.Is(err, boom) {
				t.Fatalf("aborted checkpoint returned %v, want %v", err, boom)
			}
			if st := s.StorageStats(); st.Checkpoint.Failures != 1 {
				t.Fatalf("checkpoint failures = %d, want 1", st.Checkpoint.Failures)
			}
			belowSpill(t, s)
			if err := s.w.Crash(); err != nil {
				t.Fatal(err)
			}
			s.pg.close()
			if tearTail {
				// Lose the journal's last durable record too (torn
				// write): the image now covers seqs strictly past the
				// surviving tail.
				f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				st, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Truncate(st.Size() - 4); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			// Boot one: the image (which captured the unstable content
			// via the flushed extent file) must serve everything.
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			drainReplay(t, s2)
			p := make([]byte, 14)
			if err := s2.ReadAt(2, 0, p); err != nil || !bytes.Equal(p, []byte("acked|unstable")) {
				t.Fatalf("content after crash = %q, %v", p, err)
			}
			// New acked write after the crash: this is the record the
			// seq-reuse bug silently loses.
			if err := s2.Write(3, 0, []byte("post-crash-ack"), true, 3, nil); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}

			// Boot two: the post-crash acked write must survive.
			s3 := openT(t, dir)
			defer s3.Close()
			drainReplay(t, s3)
			p = make([]byte, 14)
			if err := s3.ReadAt(3, 0, p); err != nil || !bytes.Equal(p, []byte("post-crash-ack")) {
				t.Fatalf("post-crash acked write lost: %q, %v", p, err)
			}
			if err := s3.ReadAt(2, 0, p); err != nil || !bytes.Equal(p, []byte("acked|unstable")) {
				t.Fatalf("pre-crash content lost: %q, %v", p, err)
			}
			// And checkpointing proceeds cleanly from the repaired chain.
			checkpointT(t, s3, 4, 2, regNode(2, 14), regNode(3, 14))
		})
	}
}

// TestCheckpointConcurrentReads: the checkpoint contract allows
// concurrent ReadAt while a checkpoint runs (only mutations are
// quiesced). Race-detector target.
func TestCheckpointConcurrentReads(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{HotBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainReplay(t, s)
	const files = 8
	content := bytes.Repeat([]byte("0123456789abcdef"), 2048) // 32 KB each
	var nodes []storage.NodeRecord
	for id := uint64(2); id < 2+files; id++ {
		if err := s.Write(id, 0, content, false, 1, nil); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, regNode(id, uint64(len(content))))
	}
	if err := s.Commit(2, nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(2 + (g+i)%files)
				off := uint64((i % 8) * 4096)
				if err := s.ReadAt(id, off, buf); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if !bytes.Equal(buf, content[off:off+4096]) {
					t.Errorf("reader %d: content mismatch at id %d off %d", g, id, off)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		checkpointT(t, s, 100, 100, nodes...)
	}
	close(stop)
	wg.Wait()
}

func TestSfsbenchStatsJSONShape(t *testing.T) {
	// Guard the -stats wire names: checkpoint and pager blocks must
	// marshal under the documented keys.
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	drainReplay(t, s)
	if err := s.Write(2, 0, []byte("x"), true, 1, nil); err != nil {
		t.Fatal(err)
	}
	checkpointT(t, s, 3, 1, regNode(2, 1))
	st := s.StorageStats()
	if st.Checkpoint == nil || st.Pager == nil {
		t.Fatalf("disk stats missing checkpoint/pager blocks: %+v", st)
	}
	if st.Checkpoint.Count != 1 || st.Checkpoint.WALTruncatedBytes == 0 && st.Checkpoint.Bytes == 0 {
		t.Fatalf("checkpoint block = %+v", st.Checkpoint)
	}
	if st.Checkpoint.StallMS <= 0 || st.Checkpoint.StallMS > st.Checkpoint.DurationMS {
		t.Fatalf("stall %v ms must be positive and within the duration %v ms", st.Checkpoint.StallMS, st.Checkpoint.DurationMS)
	}
	doc, err := json.Marshal(st)
	if err != nil || !bytes.Contains(doc, []byte(`"stall_ms":`)) || !bytes.Contains(doc, []byte(`"duration_ms":`)) {
		t.Fatalf("stats document %s (%v) lacks stall_ms beside duration_ms", doc, err)
	}
	// The extent block: no read reached the extent file, nothing is
	// evicted, and no write failed.
	if key := `"pager":{"faults":0,"evictions":0}`; !bytes.Contains(doc, []byte(key)) {
		t.Fatalf("stats document %s lacks %s", doc, key)
	}
}
