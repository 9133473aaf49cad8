package lab

import (
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/storage/diskstore"
	"repro/internal/vfs"
)

// clientStages and serverStages partition the stage taxonomy
// (DESIGN.md §13): a span carries one side's stages only.
var (
	clientStages = []string{"cli_encode", "cli_seal", "cli_write", "wire", "cli_decode"}
	serverStages = []string{"srv_open", "queue", "dispatch", "vfs", "fsync", "reply_seal", "reply_write"}
)

// TestStageSpansReconcile traces both ends of one SFS connection over
// serial 8 KB durable writes (WRITE, then COMMIT: a Sync after every
// write leaves the write-behind window one RPC deep) and serial 8 KB
// reads, on the memory store and on the disk store. Each side's stage
// sums must reconcile to its span totals within 5 % (the remainder is
// lock handoffs and scheduler gaps between stamps), both sides must
// record one span per RPC, the fsync stage must appear on the disk
// store only, and no stage may show up on the wrong side.
//
// The connection is shaped by netsim's era link: a span then lasts
// about a millisecond, so the whole-microsecond truncation of each
// stage (stats.StageClock) stays far inside the 5 %, as it would not
// on raw loopback.
func TestStageSpansReconcile(t *testing.T) {
	for _, mode := range []string{"mem", "disk"} {
		t.Run(mode, func(t *testing.T) {
			fs := vfs.New()
			if mode == "disk" {
				ds, err := diskstore.Open(t.TempDir(), diskstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ds.Close() })
				if fs, err = vfs.NewWithStore(ds); err != nil {
					t.Fatal(err)
				}
			}
			cli, srv := tracedSpans(t, "stages-"+mode, fs)
			reconcile(t, "client", cli, clientStages)
			reconcile(t, "server", srv, serverStages)
			if cli.Total.Count != srv.Total.Count {
				t.Fatalf("client recorded %d spans, server %d", cli.Total.Count, srv.Total.Count)
			}
			fsync := srv.Stages["fsync"]
			if mode == "mem" && fsync.Count != 0 {
				t.Fatalf("memory store recorded %d fsync stages", fsync.Count)
			}
			if mode == "disk" && (fsync.Count == 0 || fsync.SumUS == 0) {
				t.Fatalf("disk store fsync stage empty: %+v", fsync)
			}
			for _, name := range serverStages {
				if n := cli.Stages[name].Count; n != 0 {
					t.Fatalf("server stage %s in %d client spans", name, n)
				}
			}
			for _, name := range clientStages {
				if n := srv.Stages[name].Count; n != 0 {
					t.Fatalf("client stage %s in %d server spans", name, n)
				}
			}
		})
	}
}

// tracedSpans serves fs with tracing on at both ends, runs the serial
// workload through one client, and returns the client's and the
// server's stage snapshots.
func tracedSpans(t *testing.T, seed string, fs *vfs.FS) (cli, srv stats.StageSetSnapshot) {
	const iters = 25
	w, err := NewWorldOver(seed, func(c net.Conn) net.Conn { return netsim.Shape(c, netsim.SFS(true)) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s, err := w.ServeFSOn(server.ServedConfig{Location: seed + ".example.com", LeaseMS: 60000, FS: fs, TraceSpans: 4 * iters})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := w.NewClient(client.Config{EnhancedCaching: true, DataCacheBytes: -1, TraceSpans: 4 * iters})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewUser(cl, s, "u", 0, ""); err != nil {
		t.Fatal(err)
	}
	f, err := cl.Create("u", s.Path.String()+"/spans.bin", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	for i := 0; i < iters; i++ {
		if _, err := f.WriteAt(buf, uint64(i)*8192); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// Backwards, so no read is sequential and read-ahead never starts:
	// one READ round trip per iteration.
	for i := iters - 1; i >= 0; i-- {
		if _, err := f.ReadAt(buf, uint64(i)*8192); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range cl.StatsSnapshot().Mounts {
		if m.Stages != nil && m.Stages.Total.Count > 0 {
			cli = *m.Stages
		}
	}
	// The server records a span once its reply is on the wire, so the
	// client can return from the last READ first: wait for that span.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if ss, ok := w.Server.NFSStats(s.Location); ok {
			srv = ss.RPC.Stages
		}
		if srv.Total.Count >= cli.Total.Count || time.Now().After(deadline) {
			return cli, srv
		}
	}
}

// reconcile asserts that the named stages' sums add up to the span
// totals within 5 %.
func reconcile(t *testing.T, side string, s stats.StageSetSnapshot, names []string) {
	t.Helper()
	total := s.Total.SumUS
	if total == 0 {
		t.Fatalf("%s: no spans recorded", side)
	}
	var sum uint64
	for _, n := range names {
		sum += s.Stages[n].SumUS
	}
	if sum < total*95/100 || sum > total*105/100 {
		t.Fatalf("%s: stage sum %d us vs span total %d us (outside 5 %%)", side, sum, total)
	}
}
