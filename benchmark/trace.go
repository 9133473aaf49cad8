package main

// The traced run: the program's existing TraceSpans knobs are on, the
// benchmark records one root span per operation and one per round,
// and the program's public snapshot functions are read before and
// after the timed phase and turned into per-operation ratios. Nothing
// here reaches inside the program: every number comes from a public
// function or from timing a public call.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// snapshot is every public counter block of the stack at one instant.
type snapshot struct {
	io       client.IOStats // summed over client daemons
	mounts   client.MountStats
	cliStage map[string]stats.StageStat
	cliTotal stats.StageStat
	master   server.MasterStats
	nfs      nfs.ServerStats
	storage  *storage.Stats
	locks    vfs.LockStats
	wireCopy stats.WireCopyStats
	wireTx   uint64
	wireRx   uint64
	mem      runtime.MemStats
}

func addStage(dst *stats.StageStat, s stats.StageStat) {
	dst.Count += s.Count
	dst.SumUS += s.SumUS
}

func takeSnapshot(st *stack) snapshot {
	s := snapshot{cliStage: map[string]stats.StageStat{}}
	for _, l := range st.clients {
		cs := l.cl.StatsSnapshot()
		s.io.ReadAheadHits += cs.IO.ReadAheadHits
		s.io.ReadAheadMisses += cs.IO.ReadAheadMisses
		s.io.ReadAheadChunks += cs.IO.ReadAheadChunks
		s.io.WriteBehindChunks += cs.IO.WriteBehindChunks
		s.io.WriteBehindBytes += cs.IO.WriteBehindBytes
		s.io.WindowOccupancy.Count += cs.IO.WindowOccupancy.Count
		s.io.WindowOccupancy.Sum += cs.IO.WindowOccupancy.Sum
		s.io.RetransmittedOps += cs.IO.RetransmittedOps
		for _, m := range cs.Mounts {
			s.mounts.Calls += m.Calls
			s.mounts.AttrHits += m.AttrHits
			s.mounts.AccHits += m.AccHits
			s.mounts.DataHits += m.DataHits
			s.mounts.DataMisses += m.DataMisses
			s.mounts.DataEvictions += m.DataEvictions
			s.mounts.CacheLocks += m.CacheLocks
			s.mounts.CacheContended += m.CacheContended
			if m.Stages == nil {
				continue
			}
			addStage(&s.cliTotal, m.Stages.Total)
			for name, stg := range m.Stages.Stages {
				acc := s.cliStage[name]
				addStage(&acc, stg)
				s.cliStage[name] = acc
			}
		}
	}
	s.master = st.master.StatsSnapshot()
	s.nfs, _ = st.master.NFSStats(location)
	s.storage = st.fs.StorageStats()
	s.locks = st.fs.LockStatsSnapshot()
	s.wireCopy = stats.WireCopySnapshot()
	s.wireTx, s.wireRx = st.wire.tx.Load(), st.wire.rx.Load()
	runtime.ReadMemStats(&s.mem)
	return s
}

// span is one line of spans.jsonl.
type span struct {
	ID      string           `json:"id"`
	Parent  string           `json:"parent,omitempty"`
	Name    string           `json:"name"`
	StartUS int64            `json:"start_us"` // since the timed phase began
	EndUS   int64            `json:"end_us"`
	Ops     int              `json:"ops,omitempty"`       // operations the span covers, when not one
	XID     uint32           `json:"xid,omitempty"`       // server ring spans: the RPC's xid
	Stages  map[string]int64 `json:"stages_us,omitempty"` // server ring spans: the stage clocks
}

// traceData accumulates what only a traced run records.
type traceData struct {
	st            *stack
	epoch         time.Time
	before, after snapshot
	spans         []span
	goroutinesMax int
	dirBytes      uint64 // size of the store directory after the timed phase
	liveBytes     uint64 // file bytes the store holds then
	// baselineOpsPerS is the same workload's untraced throughput,
	// measured in this process just before the traced stack booted.
	baselineOpsPerS float64
}

func newTraceData(st *stack) *traceData {
	return &traceData{st: st, epoch: time.Now(), before: takeSnapshot(st)}
}

func (t *traceData) us(unixNano int64) int64 { return (unixNano - t.epoch.UnixNano()) / 1e3 }

// endRound files the round's span and its operations' root spans.
func (t *traceData) endRound(start time.Time, rs roundStat, rec *recorder, from int) {
	id := fmt.Sprintf("r%d", len(t.spans))
	t.spans = append(t.spans, span{ID: id, Name: "round", StartUS: t.us(start.UnixNano()),
		EndUS: t.us(start.Add(rs.wall).UnixNano()), Ops: rs.ops})
	per := rs.ops / (len(rec.starts) - from) // >1 where operations are timed in batches
	for i := from; i < len(rec.starts); i++ {
		sp := span{ID: fmt.Sprintf("%s.%d", id, i-from), Parent: id, Name: "op",
			StartUS: t.us(rec.starts[i]), EndUS: t.us(rec.starts[i] + rec.spanNS[i])}
		if per > 1 {
			sp.Ops = per
		}
		t.spans = append(t.spans, sp)
	}
	if n := runtime.NumGoroutine(); n > t.goroutinesMax {
		t.goroutinesMax = n
	}
}

// finish takes the closing snapshot, while the stack still serves.
func (t *traceData) finish() {
	t.after = takeSnapshot(t.st)
	if t.st.dir != "" {
		t.liveBytes = liveDataBytes(t.st.fs)
		filepath.WalkDir(t.st.dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // best-effort size
			if err == nil && !d.IsDir() {
				if info, err := d.Info(); err == nil {
					t.dirBytes += uint64(info.Size())
				}
			}
			return nil
		})
	}
	// The server's own span ring holds the last RPCs of the run, with
	// their stage clocks.
	for i, sp := range t.after.nfs.RPC.Trace.Spans {
		out := span{ID: fmt.Sprintf("srv%d", i), Name: "rpc.server." + nfs.ProcName(sp.Proc),
			StartUS: t.us(sp.Start * 1e3), EndUS: t.us(sp.Start*1e3) + sp.DurUS, XID: sp.XID, Stages: map[string]int64{}}
		for s, v := range sp.Stages {
			if v > 0 {
				out.Stages[stats.StageNames[s]] = v
			}
		}
		t.spans = append(t.spans, out)
	}
}

// writeSpans writes the spans kept in memory as JSON lines.
func (t *traceData) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stageMeanUS is a stage's mean over the timed phase: Sum/Count of
// the deltas (the histograms' own log2 quantiles are too coarse).
func stageMeanUS(before, after stats.StageStat) float64 {
	return ratio(float64(after.SumUS-before.SumUS), float64(after.Count-before.Count))
}

// perLayer turns a traced run into the per-layer metric table.
func perLayer(res *runResult, ladder metricSet) metricSet {
	t := res.tr
	b, a := t.before, t.after
	m := metricSet{}
	for name, v := range ladder {
		m[name] = v
	}
	ops, payload := 0.0, 0.0
	for _, rs := range res.rounds {
		ops += float64(rs.ops)
		payload += float64(rs.payload)
	}
	d := func(after, before uint64) float64 { return float64(after - before) }

	// End to end, kept out of the gated set: mb_per_s is ops_per_s
	// times the op size where ops move data and zero where they do
	// not; fail_ratio is zero on every accepted run.
	m.put("e2e.mb_per_s", "MB/s", res.mbPerS())
	m.put("e2e.fail_ratio", "ratio", ratio(float64(res.failed()), float64(res.attempted())))
	m.put("trace.overhead_ratio", "ratio", 1-ratio(res.opsPerS(), t.baselineOpsPerS))

	m.put("secchan.copies_per_payload", "ratio", a.wireCopy.CopyRatio)

	srvCalls := d(a.nfs.TotalCalls(), b.nfs.TotalCalls())
	m.put("nfs.rpcs_per_op", "ratio", ratio(srvCalls, ops))
	getattrs := d(a.nfs.Procs["getattr"].Calls, b.nfs.Procs["getattr"].Calls)
	attrHits := d(a.mounts.AttrHits, b.mounts.AttrHits)
	m.put("nfs.attr_hit_ratio", "ratio", ratio(attrHits, attrHits+getattrs))
	accesses := d(a.nfs.Procs["access"].Calls, b.nfs.Procs["access"].Calls)
	accHits := d(a.mounts.AccHits, b.mounts.AccHits)
	m.put("nfs.access_hit_ratio", "ratio", ratio(accHits, accHits+accesses))
	m.put("nfs.lease_breaks", "count", d(a.nfs.Leases.Breaks, b.nfs.Leases.Breaks))
	dataHits, dataMisses := d(a.mounts.DataHits, b.mounts.DataHits), d(a.mounts.DataMisses, b.mounts.DataMisses)
	m.put("nfs.data_hit_ratio", "ratio", ratio(dataHits, dataHits+dataMisses))
	m.put("nfs.data_evictions", "count", d(a.mounts.DataEvictions, b.mounts.DataEvictions))
	m.put("nfs.cache_contended_ratio", "ratio",
		ratio(d(a.mounts.CacheContended, b.mounts.CacheContended), d(a.mounts.CacheLocks, b.mounts.CacheLocks)))

	raHits, raMisses := d(a.io.ReadAheadHits, b.io.ReadAheadHits), d(a.io.ReadAheadMisses, b.io.ReadAheadMisses)
	m.put("client.readahead_hit_ratio", "ratio", ratio(raHits, raHits+raMisses))
	m.put("client.chunk_fill_ratio", "ratio",
		ratio(d(a.io.WriteBehindBytes, b.io.WriteBehindBytes), d(a.io.WriteBehindChunks, b.io.WriteBehindChunks)*blockSize))
	m.put("client.window_occupancy_mean", "count",
		ratio(d(a.io.WindowOccupancy.Sum, b.io.WindowOccupancy.Sum), d(a.io.WindowOccupancy.Count, b.io.WindowOccupancy.Count)))
	m.put("client.retransmitted_ops", "count", d(a.io.RetransmittedOps, b.io.RetransmittedOps))
	// Client self time: the benchmark's root span minus the RPCs the
	// client timed inside it. Negative where a pipeline overlaps RPCs.
	meanOpUS := 0.0
	for _, v := range res.lat {
		meanOpUS += v / 1e3
	}
	meanOpUS = ratio(meanOpUS, float64(len(res.lat)))
	cliCalls := d(a.cliTotal.Count, b.cliTotal.Count)
	m.put("client.self_us", "us", meanOpUS-ratio(cliCalls, ops)*stageMeanUS(b.cliTotal, a.cliTotal))

	hb, ha := b.master.Handshakes, a.master.Handshakes
	m.put("server.hs_full", "count", d(ha.Full, hb.Full))
	m.put("server.hs_resumed", "count", d(ha.Resumed, hb.Resumed))
	m.put("server.hs_resume_miss", "count", d(ha.ResumeMiss, hb.ResumeMiss))
	m.put("server.login_fails", "count", d(a.master.LoginFails, b.master.LoginFails))
	m.put("server.hs_crypto_us", "us", stageMeanUS(hb.Stages.Stages["hs_crypto"], ha.Stages.Stages["hs_crypto"]))
	m.put("server.hs_queue_us", "us", stageMeanUS(hb.Stages.Stages["hs_queue"], ha.Stages.Stages["hs_queue"]))

	for _, name := range []string{"cli_encode", "cli_seal", "cli_write", "wire", "cli_decode"} {
		m.put("stage."+name+"_us", "us", stageMeanUS(b.cliStage[name], a.cliStage[name]))
	}
	for _, name := range []string{"srv_open", "queue", "dispatch", "vfs", "fsync", "reply_seal", "reply_write"} {
		m.put("stage."+name+"_us", "us", stageMeanUS(b.nfs.RPC.Stages.Stages[name], a.nfs.RPC.Stages.Stages[name]))
	}

	locks := d(a.locks.MapLocks+a.locks.NodeLocks, b.locks.MapLocks+b.locks.NodeLocks)
	contended := d(a.locks.MapContended+a.locks.NodeContended, b.locks.MapContended+b.locks.NodeContended)
	m.put("vfs.lock_contended_ratio", "ratio", ratio(contended, locks))
	m.put("vfs.order_restarts", "count", d(a.locks.OrderRestarts, b.locks.OrderRestarts))

	// Storage counters exist on the disk store only; mem-store
	// workloads report zeros.
	var sb, sa storage.Stats
	var cb, ca storage.CheckpointStats
	var pb, pa storage.PagerStats
	if b.storage != nil && a.storage != nil {
		sb, sa = *b.storage, *a.storage
		cb, ca = *sb.Checkpoint, *sa.Checkpoint
		pb, pa = *sb.Pager, *sa.Pager
	}
	fsyncs := d(sa.Fsyncs, sb.Fsyncs)
	m.put("wal.fsyncs_per_op", "ratio", ratio(fsyncs, ops))
	m.put("wal.records_per_fsync", "ratio",
		ratio(d(sa.BatchRecords.Sum, sb.BatchRecords.Sum), d(sa.BatchRecords.Count, sb.BatchRecords.Count)))
	m.put("wal.bytes_per_payload_byte", "ratio", ratio(d(sa.WALBytes, sb.WALBytes), payload))
	m.put("diskstore.pager_faults_per_op", "ratio", ratio(d(pa.Faults, pb.Faults), ops))
	m.put("diskstore.pager_evictions", "count", d(pa.Evictions, pb.Evictions))
	m.put("diskstore.writeback_failures", "count", d(pa.WriteBackFailures, pb.WriteBackFailures))
	m.put("diskstore.checkpoints", "count", d(ca.Count, cb.Count))
	m.put("diskstore.checkpoint_ms", "ms", ca.DurationMS)
	m.put("diskstore.checkpoint_failures", "count", d(ca.Failures, cb.Failures))
	m.put("diskstore.disk_bytes_per_payload_byte", "ratio", ratio(float64(t.dirBytes), float64(t.liveBytes)))
	// Filled by the post-run reopen of the workloads that write.
	m.put("diskstore.recovery_ms", "ms", float64(t.st.recovery.Microseconds())/1e3)
	m.put("diskstore.recovery_tail_records", "count", float64(t.st.recoveryTail))

	wire := d(a.wireTx+a.wireRx, b.wireTx+b.wireRx)
	m.put("wire.bytes_per_payload_byte", "ratio", ratio(wire, payload))
	m.put("wire.bytes_per_op", "B", ratio(wire, ops))

	m.put("process.allocs_per_op", "count", ratio(d(a.mem.Mallocs, b.mem.Mallocs), ops))
	m.put("process.alloc_bytes_per_op", "B", ratio(d(a.mem.TotalAlloc, b.mem.TotalAlloc), ops))
	m.put("process.gc_pause_ms", "ms", d(a.mem.PauseTotalNs, b.mem.PauseTotalNs)/1e6)
	m.put("process.goroutines_max", "count", float64(t.goroutinesMax))

	// The tail is reported only as far out as ten samples lie beyond.
	m.put("tail.samples", "count", float64(len(res.lat)))
	p99, max := 0.0, 0.0
	if len(res.lat) >= 1000 {
		p99 = quantile(res.lat, 0.99) / 1e3
	}
	if n := len(res.lat); n > 0 {
		max = res.lat[n-1] / 1e3
	}
	m.put("tail.op_p99_us", "us", p99)
	m.put("tail.op_max_us", "us", max)
	return m
}

// liveDataBytes sums the sizes of the regular files under the root.
func liveDataBytes(fsys *vfs.FS) uint64 {
	ents, _, err := fsys.ReadDir(rootCred, fsys.Root(), 0, 0)
	if err != nil {
		return 0
	}
	var n uint64
	for _, e := range ents {
		if attr, err := fsys.GetAttr(e.FileID); err == nil && attr.Type == vfs.TypeReg {
			n += attr.Size
		}
	}
	return n
}
