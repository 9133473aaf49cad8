package nfs

// NFS-layer observability: per-procedure counters and latency
// histograms keyed by procedure *name* (the RPC layer one level down
// only knows numbers), write-stability accounting (unstable vs
// FILE_SYNC), and COMMIT batch sizes — the counters Fig 8's "2 RPCs
// per file vs NFS's 3" claim is asserted against. One ServerMetrics
// belongs to one Server and aggregates every session; the embedded
// sunrpc.Metrics block is shared with each session's per-connection
// RPC server so transport-level counters aggregate at the same
// granularity.

import (
	"strconv"
	"sync"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

// procSlots: procedures 0..21 are standard NFSv3; 100..103 are the
// SFS extensions; one overflow slot catches anything else.
const (
	numStdProcs = 22
	numExtProcs = 4
	numSlots    = numStdProcs + numExtProcs + 1
)

var procNames = map[uint32]string{
	ProcNull: "null", ProcGetAttr: "getattr", ProcSetAttr: "setattr",
	ProcLookup: "lookup", ProcAccess: "access", ProcReadlink: "readlink",
	ProcRead: "read", ProcWrite: "write", ProcCreate: "create",
	ProcMkdir: "mkdir", ProcSymlink: "symlink", ProcRemove: "remove",
	ProcRmdir: "rmdir", ProcRename: "rename", ProcLink: "link",
	ProcReadDir: "readdir", ProcFSInfo: "fsinfo", ProcCommit: "commit",
	ProcMountRoot: "mountroot", ProcInvalidate: "invalidate",
	ProcGetAttrSync: "getattrsync", ProcIDNames: "idnames",
}

// ProcName returns the NFSv3/SFS name of proc, or "procN" for
// unnamed numbers.
func ProcName(proc uint32) string {
	if n, ok := procNames[proc]; ok {
		return n
	}
	return "proc" + strconv.FormatUint(uint64(proc), 10)
}

// SlowRPCLog returns the slow-span log of a trace ring (see
// stats.NewTraceRing): one line per slow RPC through logf, naming the
// file system's location, the procedure, the xid and the span's stage
// waterfall. Server and client daemons log the same line.
func SlowRPCLog(location string, logf func(format string, args ...interface{})) func(stats.Span) {
	return func(sp stats.Span) {
		logf("slow rpc: location=%s proc=%s xid=%d principal=%d bytes=%d total=%dus %s",
			location, ProcName(sp.Proc), sp.XID, sp.Principal, sp.Bytes, sp.DurUS, sp.Waterfall())
	}
}

func slotFor(proc uint32) int {
	switch {
	case proc < numStdProcs:
		return int(proc)
	case proc >= ProcMountRoot && proc <= ProcIDNames:
		return numStdProcs + int(proc-ProcMountRoot)
	default:
		return numSlots - 1
	}
}

// slotProc inverts slotFor for snapshot labeling.
func slotProc(slot int) (uint32, bool) {
	switch {
	case slot < numStdProcs:
		return uint32(slot), true
	case slot < numStdProcs+numExtProcs:
		return ProcMountRoot + uint32(slot-numStdProcs), true
	default:
		return 0, false // overflow slot
	}
}

type procStat struct {
	calls stats.Counter
	errs  stats.Counter // RPC-level failures (garbage args etc.), not NFS statuses
	lat   stats.Histogram
}

// ServerMetrics instruments one nfs.Server across all its sessions.
type ServerMetrics struct {
	procs [numSlots]procStat

	unstableWrites stats.Counter
	syncWrites     stats.Counter
	unstableBytes  stats.Counter
	syncBytes      stats.Counter
	commits        stats.Counter
	commitBatch    stats.Histogram // bytes acknowledged per COMMIT

	// Lease-table accounting: grants, callback fires, and how often a
	// stripe lock acquisition had to wait (the number that would
	// explode if the stripes were one global mutex again).
	leasesGranted        stats.Counter
	leaseBreaks          stats.Counter
	leaseStripeLocks     stats.Counter
	leaseStripeContended stats.Counter

	// pending tracks unstable bytes written per file since its last
	// COMMIT, so the batch histogram reflects what each COMMIT
	// actually flushed. Guarded by its own mutex: WRITE and COMMIT
	// race across sessions.
	pendingMu sync.Mutex
	pending   map[vfs.FileID]uint64

	rpc *sunrpc.Metrics // shared with every session's RPC server
}

func newServerMetrics(trace *stats.TraceRing) *ServerMetrics {
	return &ServerMetrics{
		pending: make(map[vfs.FileID]uint64),
		rpc:     &sunrpc.Metrics{Trace: trace},
	}
}

func (m *ServerMetrics) noteWrite(id vfs.FileID, n int, fileSync bool) {
	if fileSync {
		m.syncWrites.Inc()
		m.syncBytes.Add(uint64(n))
		return
	}
	m.unstableWrites.Inc()
	m.unstableBytes.Add(uint64(n))
	m.pendingMu.Lock()
	m.pending[id] += uint64(n)
	m.pendingMu.Unlock()
}

func (m *ServerMetrics) noteCommit(id vfs.FileID) {
	m.commits.Inc()
	m.pendingMu.Lock()
	batch := m.pending[id]
	delete(m.pending, id)
	m.pendingMu.Unlock()
	m.commitBatch.Observe(batch)
}

// ProcStat is one procedure's totals in a ServerStats snapshot.
type ProcStat struct {
	Calls   uint64             `json:"calls"`
	Errors  uint64             `json:"errors,omitempty"`
	Latency stats.HistSnapshot `json:"latency_us"`
}

// LeaseStats is the JSON form of the striped lease table's counters.
type LeaseStats struct {
	Granted         uint64 `json:"granted"`
	Breaks          uint64 `json:"breaks"`
	StripeLocks     uint64 `json:"stripe_locks"`
	StripeContended uint64 `json:"stripe_contended"`
}

// ServerStats is the JSON form of a server's NFS-layer counters.
type ServerStats struct {
	Procs            map[string]ProcStat    `json:"procs,omitempty"`
	UnstableWrites   uint64                 `json:"unstable_writes"`
	SyncWrites       uint64                 `json:"sync_writes"`
	UnstableBytes    uint64                 `json:"unstable_bytes"`
	SyncBytes        uint64                 `json:"sync_bytes"`
	Commits          uint64                 `json:"commits"`
	CommitBatchBytes stats.HistSnapshot     `json:"commit_batch_bytes"`
	Leases           LeaseStats             `json:"leases"`
	VFSLocks         vfs.LockStats          `json:"vfs_locks"`
	RPC              sunrpc.MetricsSnapshot `json:"rpc"`
	// Storage carries the durable store's WAL counters; nil (omitted)
	// for the default in-memory store, so memstore stats documents are
	// unchanged by the storage refactor.
	Storage *storage.Stats `json:"storage,omitempty"`
	// WireCopy is the process-wide zero-copy wire path accounting
	// (DESIGN.md §12): payload bytes entering the encode path, how
	// many were memcpy'd versus borrowed, and the per-record
	// copies-per-payload histogram. Process-wide, not per-server — a
	// daemon runs one wire role, and the bench harness snapshots it
	// per workload via stats.ResetWireCopy.
	WireCopy stats.WireCopyStats `json:"wire_copy"`
}

// TotalCalls sums the per-procedure call counts — the number the Fig
// 8 RPC-economics test asserts against.
func (st ServerStats) TotalCalls() uint64 {
	var n uint64
	for _, p := range st.Procs {
		n += p.Calls
	}
	return n
}

// StatsSnapshot captures the server's NFS-layer counters, including
// the shared transport metrics of all its sessions.
func (s *Server) StatsSnapshot() ServerStats {
	m := s.met
	st := ServerStats{
		UnstableWrites:   m.unstableWrites.Load(),
		SyncWrites:       m.syncWrites.Load(),
		UnstableBytes:    m.unstableBytes.Load(),
		SyncBytes:        m.syncBytes.Load(),
		Commits:          m.commits.Load(),
		CommitBatchBytes: m.commitBatch.Snapshot(),
		Leases: LeaseStats{
			Granted:         m.leasesGranted.Load(),
			Breaks:          m.leaseBreaks.Load(),
			StripeLocks:     m.leaseStripeLocks.Load(),
			StripeContended: m.leaseStripeContended.Load(),
		},
		VFSLocks: s.fs.LockStatsSnapshot(),
		RPC:      m.rpc.Snapshot(),
		Storage:  s.fs.StorageStats(),
		WireCopy: stats.WireCopySnapshot(),
	}
	for i := range m.procs {
		n := m.procs[i].calls.Load()
		if n == 0 {
			continue
		}
		if st.Procs == nil {
			st.Procs = make(map[string]ProcStat)
		}
		name := "other"
		if proc, ok := slotProc(i); ok {
			name = ProcName(proc)
		}
		st.Procs[name] = ProcStat{
			Calls:   n,
			Errors:  m.procs[i].errs.Load(),
			Latency: m.procs[i].lat.Snapshot(),
		}
	}
	return st
}
