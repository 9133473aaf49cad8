package server

// Server-master observability: connection accounting at the front
// door (accepts, rejects, handshake failures), login-protocol
// outcomes including sequence-number replay drops, and single-line
// structured accept/close logging for sfssd. Per-location NFS
// counters live on each servedFS's nfs.Server and are aggregated
// into the master's snapshot.

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/stats"
	"repro/internal/sunrpc"
)

type masterMetrics struct {
	accepts    stats.Counter
	active     stats.Gauge // connections between accept and close
	rejRevoked stats.Counter
	rejNoFS    stats.Counter
	hsFails    stats.Counter // key-negotiation handshakes that died
	extConns   stats.Counter // handed to protocol extensions

	// Session-establishment accounting (DESIGN.md §14).
	hsFull       stats.Counter // full key negotiations completed
	hsResumed    stats.Counter // sessions established by resumption
	hsResumeMiss stats.Counter // resume hellos answered with a miss
	rejBusy      stats.Counter // shed at admission (pool + backlog full)
	hsTimeouts   stats.Counter // negotiations cut off by the deadline
	hsQueue      stats.Gauge   // connections waiting for a pool slot
	hsStages     stats.StageSet

	logins     stats.Counter // full-login RPCs received
	loginOK    stats.Counter
	loginFails stats.Counter // any non-OK full-login outcome
	seqReplays stats.Counter // rejected by the sequence-number window

	// Logins carried into a resumed session (DESIGN.md §14).
	loginsResumed   stats.Counter // granted with no signature
	resumeFallbacks stats.Counter // refused: the client logs in in full
}

// recordHSSpan folds one established session into the handshake stage
// histograms: hs_queue is the pool wait (zero for resumptions, which
// bypass the pool), hs_crypto the negotiation work itself.
func (s *Server) recordHSSpan(queueWait, crypto time.Duration) {
	var sp stats.Span
	sp.Stages[stats.StageHSQueue] = int64(queueWait / time.Microsecond)
	sp.Stages[stats.StageHSCrypto] = int64(crypto / time.Microsecond)
	sp.DurUS = int64((queueWait + crypto) / time.Microsecond)
	s.met.hsStages.Record(&sp)
}

// Logf is the logging hook: log.Printf-shaped. A nil hook (the
// default, and what -quiet restores) disables connection logging.
type Logf func(format string, args ...interface{})

// SetLogf installs the accept/close logging hook.
func (s *Server) SetLogf(f Logf) {
	s.logMu.Lock()
	s.logf = f
	s.logMu.Unlock()
}

func (s *Server) logConn(format string, args ...interface{}) {
	s.logMu.Lock()
	f := s.logf
	s.logMu.Unlock()
	if f != nil {
		f(format, args...)
	}
}

// countingConn wraps a raw connection to meter bytes both ways and
// fire a one-shot close hook — the "close" log line and the active
// gauge decrement — no matter which subsystem ends up owning the
// connection.
type countingConn struct {
	net.Conn
	in, out atomic.Uint64
	once    sync.Once
	onClose func(in, out uint64)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

// countingSegConn additionally forwards vectored writes, so the
// metering wrapper does not hide the transport's SegmentWriter from
// the secure channel (which would silently re-route the zero-copy
// wire path of DESIGN.md §12 through the flat Write funnel). It is
// used only when the wrapped connection itself is a SegmentWriter.
type countingSegConn struct {
	*countingConn
	sw sunrpc.SegmentWriter
}

func (c *countingSegConn) WriteSegments(segs [][]byte) (int, int, error) {
	n, copied, err := c.sw.WriteSegments(segs)
	c.out.Add(uint64(n))
	return n, copied, err
}

func (c *countingConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		if c.onClose != nil {
			c.onClose(c.in.Load(), c.out.Load())
		}
	})
	return err
}

// serviceName labels a connect request's service number for logs.
func serviceName(service uint32) string {
	switch service {
	case secchan.ServiceFile:
		return "file"
	case secchan.ServiceAuth:
		return "auth"
	case secchan.ServiceFileRO:
		return "file-ro"
	default:
		return "ext"
	}
}

// HandshakeStats is the session-establishment block of MasterStats:
// full vs resumed handshake counts, admission-control outcomes, pool
// queue depth (with high-water) and per-stage wait/crypto histograms,
// the resumption cache's hit/eviction counters, and the process heap
// high-water observed across snapshots.
type HandshakeStats struct {
	Full        uint64                   `json:"full"`
	Resumed     uint64                   `json:"resumed"`
	ResumeMiss  uint64                   `json:"resume_miss"`
	RejectsBusy uint64                   `json:"rejects_busy"`
	Timeouts    uint64                   `json:"timeouts"`
	Queue       stats.GaugeSnapshot      `json:"queue"`
	Stages      stats.StageSetSnapshot   `json:"stages"`
	ResumeCache secchan.ResumeCacheStats `json:"resume_cache"`

	HeapInUse     uint64 `json:"heap_inuse_bytes"`
	HeapInUseMax  uint64 `json:"heap_inuse_max_bytes"`
	GoroutineNow  int    `json:"goroutines"`
	GoroutinesMax int64  `json:"goroutines_max"`
}

// MasterStats is the JSON form of the master's connection and login
// counters, with each served location's NFS-layer snapshot.
type MasterStats struct {
	Accepts        uint64              `json:"accepts"`
	Active         stats.GaugeSnapshot `json:"active"`
	RejectsRevoked uint64              `json:"rejects_revoked"`
	RejectsNoFS    uint64              `json:"rejects_nosuchfs"`
	HandshakeFails uint64              `json:"handshake_fails"`
	ExtConns       uint64              `json:"extension_conns"`

	Handshakes HandshakeStats `json:"handshakes"`

	Logins          uint64 `json:"logins"`
	LoginOK         uint64 `json:"login_ok"`
	LoginFails      uint64 `json:"login_fails"`
	SeqReplays      uint64 `json:"seq_replays"`
	LoginsResumed   uint64 `json:"logins_resumed"`
	ResumeFallbacks uint64 `json:"login_resume_fallbacks"`

	Locations map[string]nfs.ServerStats `json:"locations,omitempty"`
}

// StatsSnapshot captures the master's counters and, per served
// location, its NFS server's.
func (s *Server) StatsSnapshot() MasterStats {
	m := &s.met
	st := MasterStats{
		Accepts:        m.accepts.Load(),
		Active:         m.active.Snapshot(),
		RejectsRevoked: m.rejRevoked.Load(),
		RejectsNoFS:    m.rejNoFS.Load(),
		HandshakeFails: m.hsFails.Load(),
		ExtConns:       m.extConns.Load(),
		Handshakes: HandshakeStats{
			Full:        m.hsFull.Load(),
			Resumed:     m.hsResumed.Load(),
			ResumeMiss:  m.hsResumeMiss.Load(),
			RejectsBusy: m.rejBusy.Load(),
			Timeouts:    m.hsTimeouts.Load(),
			Queue:       m.hsQueue.Snapshot(),
			Stages:      m.hsStages.Snapshot(),
			ResumeCache: s.resume.Stats(),
		},
		Logins:     m.logins.Load(),
		LoginOK:    m.loginOK.Load(),
		LoginFails: m.loginFails.Load(),
		SeqReplays: m.seqReplays.Load(),

		LoginsResumed:   m.loginsResumed.Load(),
		ResumeFallbacks: m.resumeFallbacks.Load(),
	}
	st.Handshakes.HeapInUse, st.Handshakes.HeapInUseMax = sampleHeap()
	st.Handshakes.GoroutineNow = runtime.NumGoroutine()
	st.Handshakes.GoroutinesMax = noteGoroutineHigh(int64(st.Handshakes.GoroutineNow))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sfs := range s.byHost {
		if st.Locations == nil {
			st.Locations = make(map[string]nfs.ServerStats)
		}
		st.Locations[sfs.path.Location] = sfs.nfss.StatsSnapshot()
	}
	return st
}

// NFSStats returns one served location's NFS-layer counters — what
// the Fig 8 RPC-economics test asserts against.
func (s *Server) NFSStats(location string) (nfs.ServerStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sfs := range s.byHost {
		if sfs.path.Location == location {
			return sfs.nfss.StatsSnapshot(), true
		}
	}
	return nfs.ServerStats{}, false
}

// heapHigh and goroutineHigh track process high-water marks across
// snapshots: sampling happens at snapshot time (ReadMemStats briefly
// stops the world, so it never runs on the per-handshake path), which
// is when the daemons' -stats command and the storm figure look.
var heapHigh, goroutineHigh atomic.Uint64

func sampleHeap() (now, max uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now = ms.HeapInuse
	for {
		old := heapHigh.Load()
		if now <= old {
			return now, old
		}
		if heapHigh.CompareAndSwap(old, now) {
			return now, now
		}
	}
}

func noteGoroutineHigh(n int64) int64 {
	for {
		old := goroutineHigh.Load()
		if uint64(n) <= old {
			return int64(old)
		}
		if goroutineHigh.CompareAndSwap(old, uint64(n)) {
			return n
		}
	}
}

// durRound trims a duration for log lines.
func durRound(d time.Duration) time.Duration {
	switch {
	case d > time.Second:
		return d.Round(time.Millisecond)
	default:
		return d.Round(time.Microsecond)
	}
}
