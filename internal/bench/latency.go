package bench

// The latency-attribution figure: where does an SFS RPC's time go?
// The full stack runs the Figure 5-style serial 8 KB workload — one
// READ at a time (read-ahead off) and one WRITE+COMMIT at a time
// (write-behind off) — with stage tracing enabled on both ends, then
// reports the per-stage p50/p95/p99 from the client's and the
// server's span histograms (DESIGN.md §13). Two modes: "mem" serves
// from the memory store behind the calibrated netsim disk (fsync
// stage structurally zero), "disk" serves from the WAL-backed disk
// store with real fsyncs (fsync stage nonzero, absolute numbers vary
// with the host's storage). The committed JSON is the paper-style
// answer to "encryption vs wire vs disk": the seal/open stages are
// the crypto cost, wire is the round trip, fsync is durability.

import (
	"fmt"
	"os"
	"time"

	"repro/internal/stats"
	"repro/internal/storage/diskstore"
	"repro/internal/vfs"
)

// LatencyMode is one mode's pair of stage distributions in the
// latency figure: the client's view of its RPCs and the server's view
// of the same stream, correlated in aggregate (spans pair by xid in
// the trace rings).
type LatencyMode struct {
	Client stats.StageSetSnapshot `json:"client"`
	Server stats.StageSetSnapshot `json:"server"`
}

// FigLatency runs the latency-attribution experiment in both storage
// modes and returns the figure committed as BENCH_latency.json.
func FigLatency(opts Options) (*Figure, error) {
	iters := 200
	if opts.Quick {
		iters = 25
	}
	fig := &Figure{
		ID:    "Latency",
		Title: fmt.Sprintf("per-stage RPC latency attribution (%d serial 8 KB reads + writes, mem vs disk store)", iters),
	}
	for _, mode := range []string{"mem", "disk"} {
		if err := latencyMode(fig, mode, iters); err != nil {
			return nil, err
		}
	}
	fig.render(opts.out())
	return fig, nil
}

// latencyMode runs the workload on one storage backend and folds the
// stage snapshots and summary rows into fig.
func latencyMode(fig *Figure, mode string, iters int) error {
	stats.ResetWireCopy()
	var fs *vfs.FS
	switch mode {
	case "mem":
		fs, _ = newEraFS()
	case "disk":
		// Like the recovery figure, the disk mode installs no netsim
		// disk: the WAL fsyncs are real, so the fsync stage measures
		// the host's storage.
		dir, err := os.MkdirTemp("", "sfs-latency-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ds, err := diskstore.Open(dir, diskstore.Options{})
		if err != nil {
			return err
		}
		fs, err = vfs.NewWithStores(ds, ds)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("bench: unknown latency mode %q", mode)
	}
	ccfg, scfg := paperClient, paperServed
	ccfg.ReadAhead, ccfg.WriteBehind = -1, -1
	ccfg.TraceSpans, scfg.TraceSpans = 4*iters, 4*iters
	st, err := NewSFS(fs, ccfg, scfg)
	if err != nil {
		return err
	}
	defer st.Close()

	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i * 13)
	}
	f, err := st.Create("lat.bin")
	if err != nil {
		return err
	}
	// Serial durable writes: each iteration is one WRITE RPC followed
	// by one COMMIT RPC — in disk mode every COMMIT waits on the WAL.
	for i := 0; i < iters; i++ {
		if _, err := f.WriteAt(buf, uint64(i)*8192); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	// Serial reads: read-ahead is off, so each iteration is exactly
	// one READ RPC round trip.
	rbuf := make([]byte, 8192)
	for i := 0; i < iters; i++ {
		if _, err := f.ReadAt(rbuf, uint64(i)*8192); err != nil {
			return err
		}
	}

	sfs := st.(*sfsStack)
	var lm LatencyMode
	for _, m := range sfs.cl.StatsSnapshot().Mounts {
		if m.Stages != nil && m.Stages.Total.Count > 0 {
			lm.Client = *m.Stages
		}
	}
	// The server records a span once its reply is on the wire, so the
	// client can return from the last READ and get here first: wait for
	// that last span to land rather than snapshot one short.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if ss, ok := st.ServerStats(); ok {
			lm.Server = ss.RPC.Stages
		}
		if lm.Server.Total.Count >= lm.Client.Total.Count || time.Now().After(deadline) {
			break
		}
	}
	if fig.Latency == nil {
		fig.Latency = make(map[string]LatencyMode)
	}
	fig.Latency[mode] = lm

	label := "SFS (" + mode + " store)"
	for _, side := range []struct {
		name string
		st   stats.StageStat
	}{
		{"client", lm.Client.Total}, {"server", lm.Server.Total},
	} {
		fig.Rows = append(fig.Rows,
			FigureRow{Stack: label, Phase: side.name + " p50", Value: float64(side.st.P50), Unit: "us", RPCs: side.st.Count},
			FigureRow{Stack: label, Phase: side.name + " p95", Value: float64(side.st.P95), Unit: "us", RPCs: side.st.Count},
			FigureRow{Stack: label, Phase: side.name + " p99", Value: float64(side.st.P99), Unit: "us", RPCs: side.st.Count},
		)
	}
	fig.noteCounters(label, st)
	// The counters block would otherwise embed the whole span ring
	// (hundreds of raw spans): introspection, not a result, and it
	// would swamp the committed JSON. Keep the recorded count, drop
	// the dump — the distributions live in fig.Latency.
	if ss, ok := fig.Counters[label]; ok {
		ss.RPC.Trace.Spans = nil
		fig.Counters[label] = ss
	}
	return nil
}
