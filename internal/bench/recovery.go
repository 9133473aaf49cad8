package bench

// The recovery figure: the first figure to run the full SFS stack
// over the durable disk store (storage/diskstore) and crash it for
// real. One client writes and COMMITs a file (acknowledged stable),
// streams unstable writes into a second file, and the server then
// dies mid write-behind pipeline — the WAL drops its user-space
// buffer and closes without a final sync, the kill -9 model — and
// reopens, replaying the surviving journal. The figure hard-asserts
// the durability contract of RFC 1813 §4.8: every byte whose COMMIT
// was acknowledged is still there (verified through a second client
// whose reads must cross the wire), and the unstable tail is repaired
// by the verifier/retransmission path, exercised here against a real
// failure for the first time. Replay throughput (MB/s over the
// journal bytes) is the recovery-cost headline.
//
// Unlike the paper-reproduction figures this one installs no netsim
// disk: the fsyncs are real, so absolute numbers vary with the host's
// storage. The invariants (zero acknowledged-COMMIT loss, retransmit
// repairs the tail) are hardware-independent.

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/nfs"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/vfs"
)

// FigRecovery runs the crash-recovery experiment and returns the
// figure committed as BENCH_recovery.json.
func FigRecovery(opts Options) (*Figure, error) {
	committedSize := int64(8 << 20)
	inflightSize := int64(2 << 20)
	if opts.Quick {
		committedSize = 512 << 10
		inflightSize = 256 << 10
	}
	fig := &Figure{
		ID:    "Recovery",
		Quick: opts.Quick,
		Title: fmt.Sprintf("disk store crash recovery: %d KB committed + %d KB in-flight, kill -9, WAL replay",
			committedSize>>10, inflightSize>>10),
	}

	dir, err := os.MkdirTemp("", "sfs-recovery-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ds, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return nil, err
	}
	fs, err := vfs.NewWithStore(ds)
	if err != nil {
		return nil, err
	}
	cluster, err := NewSFSCluster(fs, 2, paperClient, paperServed)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	writer, verifier := cluster.Clients[0], cluster.Clients[1]
	base := cluster.Base()
	const label = "SFS (disk store)"

	// Phase 1: write and COMMIT a file. Once Sync returns, the server
	// has acknowledged the COMMIT — these bytes must survive anything.
	committed := bytes.Repeat([]byte("durable!"), int(committedSize)/8)
	cf, err := writer.Create("bench", base+"/committed.bin", 0o644)
	if err != nil {
		return nil, err
	}
	before := writer.TotalRPCs()
	start := time.Now()
	if err := writeChunks(cf, committed); err != nil {
		return nil, err
	}
	if err := cf.Sync(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	fig.Rows = append(fig.Rows, FigureRow{
		Stack: label, Phase: "write+commit",
		Value: Result{Elapsed: elapsed, Bytes: committedSize}.MBps(), Unit: "MB/s",
		RPCs: writer.TotalRPCs() - before,
	})

	// Phase 2: stream unstable writes — the write-behind pipeline
	// acknowledges them as UNSTABLE and nothing COMMITs — then crash.
	// Flush retires the in-flight WRITEs without committing, so the
	// crash lands in the exact window the verifier scheme exists for:
	// after the unstable acknowledgments, before any COMMIT.
	inflight := bytes.Repeat([]byte("tailbyte"), int(inflightSize)/8)
	inf, err := writer.Create("bench", base+"/inflight.bin", 0o644)
	if err != nil {
		return nil, err
	}
	if err := writeChunks(inf, inflight); err != nil {
		return nil, err
	}
	if err := inf.Flush(); err != nil {
		return nil, err
	}
	oldVerf := fs.Verifier()
	start = time.Now()
	if err := fs.Restart(); err != nil { // real crash (torn WAL tail) + replay
		return nil, fmt.Errorf("recovery: restart: %w", err)
	}
	restartElapsed := time.Since(start)
	if fs.Verifier() == oldVerf {
		return nil, fmt.Errorf("recovery: verifier unchanged across crash")
	}
	replay := fs.LastReplay()
	fig.Rows = append(fig.Rows,
		FigureRow{Stack: label, Phase: "crash+replay", Value: restartElapsed.Seconds(), Unit: "s"},
		FigureRow{Stack: label, Phase: "wal replay", Value: replay.MBps(), Unit: "MB/s"},
		FigureRow{Stack: label, Phase: "replay records", Value: float64(replay.Records), Unit: "records"},
	)

	// Phase 3: the client COMMITs the in-flight file, sees the
	// verifier change, and retransmits every dirty range.
	before = writer.TotalRPCs()
	start = time.Now()
	if err := inf.Sync(); err != nil {
		return nil, fmt.Errorf("recovery: post-crash sync: %w", err)
	}
	elapsed = time.Since(start)
	fig.Rows = append(fig.Rows, FigureRow{
		Stack: label, Phase: "post-crash sync",
		Value: elapsed.Seconds(), Unit: "s",
		RPCs: writer.TotalRPCs() - before,
	})

	// Hard assertions, through the second client so every read
	// crosses the wire instead of any writer-side state.
	got, err := verifier.ReadFile("bench", base+"/committed.bin")
	if err != nil {
		return nil, fmt.Errorf("recovery: committed file unreadable after crash: %w", err)
	}
	if !bytes.Equal(got, committed) {
		return nil, fmt.Errorf("recovery: acknowledged COMMIT lost data: got %d bytes, want %d",
			len(got), committedSize)
	}
	got, err = verifier.ReadFile("bench", base+"/inflight.bin")
	if err != nil {
		return nil, fmt.Errorf("recovery: in-flight file unreadable after retransmit: %w", err)
	}
	if !bytes.Equal(got, inflight) {
		return nil, fmt.Errorf("recovery: retransmission did not repair in-flight file: got %d bytes, want %d",
			len(got), inflightSize)
	}
	fig.Rows = append(fig.Rows, FigureRow{
		Stack: label, Phase: "acked commits lost", Value: 0, Unit: "bytes",
	})

	if ss, ok := cluster.ServerStats(); ok {
		fig.Counters = map[string]nfs.ServerStats{label: ss}
	}

	// Phase 4: bounded recovery at scale (DESIGN.md §15). The same
	// working set rewritten N times grows the journal N-fold, so
	// journal-only replay scales with history while checkpointed
	// replay stays O(working set + tail).
	if err := recoveryAtScale(fig, opts); err != nil {
		return nil, err
	}
	fig.render(opts.out())
	return fig, nil
}

// recoveryAtScale appends the checkpointing and extent-file rows:
// replay time vs history depth with and without checkpoints, and a
// checkpointed store whose reads, all from the extent file, must
// verify byte-identical.
func recoveryAtScale(fig *Figure, opts Options) error {
	rounds := 10
	roundBytes := 4 << 20
	coldFiles, coldFileBytes := 32, 1<<20
	if opts.Quick {
		roundBytes = 256 << 10
		coldFiles, coldFileBytes = 16, 64<<10
	}
	const label = "SFS (disk store)"

	journal1, _, err := replayAfterHistory(1, roundBytes, false)
	if err != nil {
		return err
	}
	journalN, journalStats, err := replayAfterHistory(rounds, roundBytes, false)
	if err != nil {
		return err
	}
	ckptN, ckptStats, err := replayAfterHistory(rounds, roundBytes, true)
	if err != nil {
		return err
	}
	if ckptStats.TailRecords > uint64(roundBytes/(64<<10))+8 {
		return fmt.Errorf("recovery: checkpointed tail has %d records — compaction is not bounding the journal", ckptStats.TailRecords)
	}
	// What a checkpoint buys is counted, not timed: the journal records
	// a reboot replays with and without one. The checkpointed boot takes
	// well under a millisecond, so a ratio of the two times is noise.
	fig.Rows = append(fig.Rows,
		FigureRow{Stack: label, Phase: "replay 1x history (journal only)", Value: journal1.Seconds() * 1000, Unit: "ms"},
		FigureRow{Stack: label, Phase: fmt.Sprintf("replay %dx history (journal only)", rounds), Value: journalN.Seconds() * 1000, Unit: "ms"},
		FigureRow{Stack: label, Phase: fmt.Sprintf("replay %dx history (checkpointed)", rounds), Value: ckptN.Seconds() * 1000, Unit: "ms"},
		FigureRow{Stack: label, Phase: fmt.Sprintf("records replayed, %dx history (journal only)", rounds), Value: float64(journalStats.Records), Unit: "records"},
		FigureRow{Stack: label, Phase: fmt.Sprintf("records replayed, %dx history (checkpointed tail)", rounds), Value: float64(ckptStats.TailRecords), Unit: "records"},
		FigureRow{Stack: label, Phase: "checkpoint image load", Value: ckptStats.CheckpointMBps(), Unit: "MB/s"},
	)

	// A dataset served from the extent file after a checkpointed
	// reboot, every block read once.
	reads, err := coldRead(coldFiles, coldFileBytes)
	if err != nil {
		return err
	}
	fig.Rows = append(fig.Rows,
		FigureRow{Stack: label, Phase: "cold-read dataset", Value: float64(coldFiles * coldFileBytes), Unit: "bytes"},
		FigureRow{Stack: label, Phase: "cold-read extent reads", Value: float64(reads), Unit: "blocks"},
	)
	return nil
}

// replayAfterHistory rewrites one working set `rounds` times
// (committing each round), optionally checkpointing after each round,
// then closes the store and measures a cold reopen's replay.
func replayAfterHistory(rounds, roundBytes int, checkpoint bool) (time.Duration, storage.ReplayStats, error) {
	dir, err := os.MkdirTemp("", "sfs-recovery-scale-")
	if err != nil {
		return 0, storage.ReplayStats{}, err
	}
	defer os.RemoveAll(dir)
	ds, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return 0, storage.ReplayStats{}, err
	}
	fs, err := vfs.NewWithStore(ds)
	if err != nil {
		return 0, storage.ReplayStats{}, err
	}
	cred := vfs.Cred{UID: 0}
	id, _, err := fs.Create(cred, fs.Root(), "workset", 0o644, true)
	if err != nil {
		return 0, storage.ReplayStats{}, err
	}
	chunk := bytes.Repeat([]byte("history!"), 8<<10) // 64 KB
	for r := 0; r < rounds; r++ {
		for off := 0; off < roundBytes; off += len(chunk) {
			if _, err := fs.Write(cred, id, uint64(off), chunk, false); err != nil {
				return 0, storage.ReplayStats{}, err
			}
		}
		if err := fs.Commit(id); err != nil {
			return 0, storage.ReplayStats{}, err
		}
		if checkpoint {
			if _, err := fs.Checkpoint(); err != nil {
				return 0, storage.ReplayStats{}, err
			}
		}
	}
	if err := ds.Close(); err != nil {
		return 0, storage.ReplayStats{}, err
	}

	start := time.Now()
	ds2, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return 0, storage.ReplayStats{}, err
	}
	fs2, err := vfs.NewWithStore(ds2)
	if err != nil {
		return 0, storage.ReplayStats{}, err
	}
	elapsed := time.Since(start)
	rs := fs2.LastReplay()
	// Spot-check the working set survived whichever path replayed it.
	got, _, err := fs2.Read(cred, id, 0, 8)
	if err != nil || !bytes.Equal(got, []byte("history!")) {
		return 0, rs, fmt.Errorf("recovery: working set corrupt after reopen: %q, %v", got, err)
	}
	return elapsed, rs, ds2.Close()
}

// coldRead builds a dataset of files×fileBytes, checkpoints, reopens,
// and reads every byte back from the extent file, verifying content.
// It returns the extent block reads the pass took.
func coldRead(files, fileBytes int) (reads uint64, err error) {
	dir, err := os.MkdirTemp("", "sfs-recovery-ram-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	open := func() (*vfs.FS, *diskstore.Store, error) {
		ds, err := diskstore.Open(dir, diskstore.Options{})
		if err != nil {
			return nil, nil, err
		}
		fs, err := vfs.NewWithStore(ds)
		if err != nil {
			ds.Close()
			return nil, nil, err
		}
		return fs, ds, nil
	}
	fs, ds, err := open()
	if err != nil {
		return 0, err
	}
	cred := vfs.Cred{UID: 0}
	pattern := func(i int) []byte {
		p := bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5f, byte(^i)}, fileBytes/4)
		return p
	}
	ids := make([]vfs.FileID, files)
	for i := 0; i < files; i++ {
		id, _, err := fs.Create(cred, fs.Root(), fmt.Sprintf("cold-%03d", i), 0o644, true)
		if err != nil {
			return 0, err
		}
		if _, err := fs.Write(cred, id, 0, pattern(i), false); err != nil {
			return 0, err
		}
		ids[i] = id
	}
	if err := fs.Commit(ids[0]); err != nil {
		return 0, err
	}
	if _, err := fs.Checkpoint(); err != nil {
		return 0, err
	}
	if err := ds.Close(); err != nil {
		return 0, err
	}

	fs, ds, err = open()
	if err != nil {
		return 0, err
	}
	defer ds.Close()
	for i := 0; i < files; i++ {
		want := pattern(i)
		for off := 0; off < fileBytes; off += 64 << 10 {
			n := uint32(64 << 10)
			if fileBytes-off < int(n) {
				n = uint32(fileBytes - off)
			}
			got, _, err := fs.Read(cred, ids[i], uint64(off), n)
			if err != nil {
				return 0, fmt.Errorf("recovery: cold read %d@%d: %w", ids[i], off, err)
			}
			if !bytes.Equal(got, want[off:off+int(n)]) {
				return 0, fmt.Errorf("recovery: cold extent %d@%d not byte-identical after a reboot", ids[i], off)
			}
		}
	}
	st := fs.StorageStats()
	if st == nil || st.Pager == nil {
		return 0, fmt.Errorf("recovery: disk store reports no extent stats")
	}
	return st.Pager.Faults, nil
}

// writeChunks streams data through the write-behind pipeline in 64 KB
// application writes.
func writeChunks(f *client.File, data []byte) error {
	const chunk = 64 << 10
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := f.WriteAt(data[off:end], uint64(off)); err != nil {
			return err
		}
	}
	return nil
}
