package vfs

// Checkpoint tests at the vfs layer: the full snapshot → image →
// bounded-replay loop, bit-exact restoration of the namespace, and
// the quiesce protocol under concurrent load.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage/diskstore"
)

// TestCheckpointRestoresTree builds a namespace with every node
// flavor, checkpoints, reopens, and asserts the image-restored tree
// is bit-equal to the pre-close one — attributes, times, link counts,
// symlink targets, directory cookies — with zero tail records.
func TestCheckpointRestoresTree(t *testing.T) {
	dir := t.TempDir()
	fs, ds := newDiskFS(t, dir, diskstore.Options{})

	d1, _, err := fs.Mkdir(root, fs.Root(), "dir1", 0o750)
	if err != nil {
		t.Fatal(err)
	}
	f1, _, err := fs.Create(root, d1, "file1", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(root, f1, 0, []byte("checkpointed bytes"), true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Symlink(root, d1, "ln", "../dir1/file1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(root, f1, fs.Root(), "hard1"); err != nil {
		t.Fatal(err)
	}
	mode := uint32(0o604)
	if _, err := fs.SetAttrs(root, f1, SetAttr{Mode: &mode}); err != nil {
		t.Fatal(err)
	}
	// Id churn that only the trailer watermark remembers: allocate,
	// checkpoint, remove — the id is in neither image nor tail.
	doomed, _, err := fs.Create(root, d1, "doomed", 0o600, true)
	if err != nil {
		t.Fatal(err)
	}

	wantF1, err := fs.GetAttr(f1)
	if err != nil {
		t.Fatal(err)
	}
	wantEnts, _, err := fs.ReadDir(root, d1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := fs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(root, d1, "doomed"); err != nil {
		t.Fatal(err)
	}
	// The reopened tree is image + tail remove, so the expected dir
	// attrs are the post-remove ones (the remove replays and touches
	// the directory's mtime again, exactly as it did live).
	wantDir, err := fs.GetAttr(d1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, ds2 := newDiskFS(t, dir, diskstore.Options{})
	defer ds2.Close()
	rs := fs2.LastReplay()
	if rs.CheckpointRecords == 0 {
		t.Fatalf("replay loaded no image: %+v", rs)
	}
	if rs.TailRecords != 1 {
		t.Fatalf("TailRecords = %d, want only the post-checkpoint remove", rs.TailRecords)
	}

	gotF1, err := fs2.GetAttr(f1)
	if err != nil {
		t.Fatal(err)
	}
	if gotF1.Mode != wantF1.Mode || gotF1.Size != wantF1.Size || gotF1.Nlink != 2 ||
		gotF1.UID != wantF1.UID || gotF1.GID != wantF1.GID ||
		!gotF1.Mtime.Equal(wantF1.Mtime) || !gotF1.Ctime.Equal(wantF1.Ctime) ||
		!gotF1.Atime.Equal(wantF1.Atime) {
		t.Fatalf("file attrs not bit-equal:\n got %+v\nwant %+v", gotF1, wantF1)
	}
	gotDir, err := fs2.GetAttr(d1)
	if err != nil {
		t.Fatal(err)
	}
	if gotDir.Mode != wantDir.Mode || gotDir.Nlink != wantDir.Nlink ||
		!gotDir.Mtime.Equal(wantDir.Mtime) {
		t.Fatalf("dir attrs not bit-equal:\n got %+v\nwant %+v", gotDir, wantDir)
	}
	// Cookies must survive exactly: a client resuming READDIR across
	// the reboot depends on them.
	gotEnts, _, err := fs2.ReadDir(root, d1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]uint64{}
	for _, e := range wantEnts {
		want[e.Name] = [2]uint64{uint64(e.FileID), e.Cookie}
	}
	delete(want, "doomed")
	if len(gotEnts) != len(want) {
		t.Fatalf("dir has %d entries, want %d", len(gotEnts), len(want))
	}
	for _, e := range gotEnts {
		w, ok := want[e.Name]
		if !ok || w[0] != uint64(e.FileID) || w[1] != e.Cookie {
			t.Fatalf("entry %q = (id %d, cookie %d), want %v", e.Name, e.FileID, e.Cookie, w)
		}
	}
	if hid, _, err := fs2.Lookup(root, fs2.Root(), "hard1"); err != nil || hid != f1 {
		t.Fatalf("hard link = (%d, %v), want id %d", hid, err, f1)
	}
	lnID, _, err := fs2.Lookup(root, d1, "ln")
	if err != nil {
		t.Fatal(err)
	}
	if target, err := fs2.Readlink(lnID); err != nil || target != "../dir1/file1" {
		t.Fatalf("readlink = (%q, %v)", target, err)
	}
	data, _, err := fs2.Read(root, f1, 0, 100)
	if err != nil || string(data) != "checkpointed bytes" {
		t.Fatalf("content = %q, %v", data, err)
	}
	// The watermark: a new id must not reuse the doomed one.
	nid, _, err := fs2.Create(root, fs2.Root(), "fresh", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if nid == doomed {
		t.Fatalf("id %d reused after checkpoint+remove", nid)
	}
}

// TestCheckpointBoundsReplayAcrossHistory: N× more history than a
// single boot should replay. With checkpointing the tail stays O(1)
// while the journal-only path replays everything.
func TestCheckpointBoundsReplayAcrossHistory(t *testing.T) {
	dir := t.TempDir()
	fs, ds := newDiskFS(t, dir, diskstore.Options{})
	id, _, err := fs.Create(root, fs.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			if _, err := fs.Write(root, id, uint64(i)*4096, buf, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Commit(id); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Write(root, id, 0, []byte("tail"), true); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, ds2 := newDiskFS(t, dir, diskstore.Options{})
	defer ds2.Close()
	rs := fs2.LastReplay()
	// 200 data records were journaled; the tail must hold only the one
	// past the last checkpoint.
	if rs.TailRecords != 1 {
		t.Fatalf("TailRecords = %d after 10 checkpointed rounds, want 1", rs.TailRecords)
	}
	if data, _, err := fs2.Read(root, id, 0, 4); err != nil || string(data) != "tail" {
		t.Fatalf("read = %q, %v", data, err)
	}
}

// TestCheckpointConcurrentWrites hammers the quiesce protocol: many
// writers, COMMITs and namespace mutators race a stream of checkpoints
// — whose prepare phase writes blocks back and syncs the journal while
// they run — then the store is crashed and replayed, and later closed
// and reopened, and both times every file and every block the workload
// had acknowledged must be whole. Race-detector target.
func TestCheckpointConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	// Sixteen resident blocks: most of every stream is evicted or
	// written back by a prepare while its writer is still going.
	fs, ds := newDiskFS(t, dir, diskstore.Options{HotBytes: 128 << 10})

	const workers = 4
	const perWorker = 40
	const streamBlocks, passes, blockSize = 24, 3, 8192
	block := func(w, bno, gen int) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(w*31 + bno*7 + gen*3 + i)
		}
		return p
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream, _, err := fs.Create(root, fs.Root(), fmt.Sprintf("w%d-stream", w), 0o644, true)
			if err != nil {
				t.Errorf("create stream %d: %v", w, err)
				return
			}
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-f%d", w, i)
				id, _, err := fs.Create(root, fs.Root(), name, 0o644, true)
				if err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if _, err := fs.Write(root, id, 0, []byte(name), true); err != nil {
					t.Errorf("write %s: %v", name, err)
					return
				}
				if i%10 == 9 {
					dn := fmt.Sprintf("w%d-d%d", w, i)
					if _, _, err := fs.Mkdir(root, fs.Root(), dn, 0o755); err != nil {
						t.Errorf("mkdir %s: %v", dn, err)
						return
					}
				}
			}
			for n := 0; n < passes*streamBlocks; n++ {
				bno, gen := n%streamBlocks, n/streamBlocks
				if _, err := fs.Write(root, stream, uint64(bno)*blockSize, block(w, bno, gen), false); err != nil {
					t.Errorf("stream %d block %d: %v", w, bno, err)
					return
				}
				if n%8 == 7 {
					if err := fs.Commit(stream); err != nil {
						t.Errorf("commit stream %d: %v", w, err)
						return
					}
				}
			}
		}()
	}
	writersDone := make(chan struct{})
	ckDone := make(chan struct{})
	go func() {
		defer close(ckDone)
		for i := 0; ; i++ {
			if i >= 8 {
				select {
				case <-writersDone:
					return
				default:
				}
			}
			if _, err := fs.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(writersDone)
	<-ckDone

	verify := func(fs *FS, when string) {
		t.Helper()
		for w := 0; w < workers; w++ {
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-f%d", w, i)
				id, _, err := fs.Lookup(root, fs.Root(), name)
				if err != nil {
					t.Fatalf("%s: lookup %s: %v", when, name, err)
				}
				data, _, err := fs.Read(root, id, 0, uint32(len(name)))
				if err != nil || string(data) != name {
					t.Fatalf("%s: read %s = %q, %v", when, name, data, err)
				}
			}
			stream, _, err := fs.Lookup(root, fs.Root(), fmt.Sprintf("w%d-stream", w))
			if err != nil {
				t.Fatalf("%s: lookup stream %d: %v", when, w, err)
			}
			for bno := 0; bno < streamBlocks; bno++ {
				data, _, err := fs.Read(root, stream, uint64(bno)*blockSize, blockSize)
				if err != nil || !bytes.Equal(data, block(w, bno, passes-1)) {
					t.Fatalf("%s: stream %d block %d is not its last committed generation (%v)", when, w, bno, err)
				}
			}
		}
	}
	if st := fs.StorageStats(); st.Checkpoint.Count < 8 || st.Checkpoint.Failures != 0 || st.Pager.WriteBackFailures != 0 || st.WALFailures != 0 {
		t.Fatalf("store counters after the race: %+v %+v, %d journal failures", st.Checkpoint, st.Pager, st.WALFailures)
	}
	// Every stream's last write was followed by a COMMIT (passes *
	// streamBlocks is a multiple of 8), so a crash may lose nothing.
	restartT(t, fs)
	verify(fs, "after crash and replay")
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, ds2 := newDiskFS(t, dir, diskstore.Options{HotBytes: 128 << 10})
	defer ds2.Close()
	verify(fs2, "after reopen")
}

// TestAutoCheckpointFires: the background checkpointer must fire on
// the WAL-bytes trigger without any manual call, and stop() must halt
// it.
func TestAutoCheckpointFires(t *testing.T) {
	dir := t.TempDir()
	fs, ds := newDiskFS(t, dir, diskstore.Options{})
	defer ds.Close()
	stop := fs.StartAutoCheckpoint(64<<10, 0)
	defer stop()
	id, _, err := fs.Create(root, fs.Root(), "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i := 0; i < 16; i++ {
			if _, err := fs.Write(root, id, uint64(i)*8192, buf, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Commit(id); err != nil {
			t.Fatal(err)
		}
		st := fs.StorageStats()
		if st != nil && st.Checkpoint != nil && st.Checkpoint.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-checkpoint never fired on the bytes trigger")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCheckpointOnMemstoreErrors: the in-memory store cannot
// checkpoint; the API must say so instead of silently succeeding.
func TestCheckpointOnMemstoreErrors(t *testing.T) {
	fs := New()
	if _, err := fs.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on memstore succeeded")
	}
	stop := fs.StartAutoCheckpoint(1, time.Millisecond)
	stop() // no-op, must not panic
}
