package client

// Client-side I/O pipeline observability: how well the read-ahead
// window is hiding latency, how full the write-behind coalescing
// chunks run, and how much dirty data had to be retransmitted after a
// server reboot changed the write verifier. One ioStats belongs to
// one Client and is shared by every mount and open File; all hot-path
// updates are single atomic operations.

import "repro/internal/stats"

type ioStats struct {
	// Read-ahead pipeline.
	raHits   stats.Counter // reads served by an already-issued READ future
	raMisses stats.Counter // serial fallbacks + pipeline startups
	raChunks stats.Counter // speculative READs issued

	// Write-behind pipeline.
	wbChunks    stats.Counter   // unstable WRITE chunks issued
	wbBytes     stats.Counter   // payload bytes across those chunks
	wbWindowOcc stats.Histogram // window length after each issue
	retransOps  stats.Counter   // dirty ranges re-sent after verifier change
	retransB    stats.Counter   // bytes across those ranges
	syncSmall   stats.Counter   // Syncs satisfied by one FILE_SYNC WRITE (no COMMIT)
}

// stats is the counter block of the Client f was opened through: every
// node is resolved under a mount, and every mount carries its Client's.
func (f *File) stats() *ioStats { return f.node.mount.io }

// IOStats is the JSON form of a client's pipeline counters.
// ChunkFillRatio is WriteBehindBytes over the capacity of the issued
// chunks (chunks × 8 KB): 1.0 means every chunk left full, the
// coalescing buffer doing its job.
type IOStats struct {
	ReadAheadHits   uint64 `json:"readahead_hits"`
	ReadAheadMisses uint64 `json:"readahead_misses"`
	ReadAheadChunks uint64 `json:"readahead_chunks_issued"`

	WriteBehindChunks  uint64             `json:"writebehind_chunks"`
	WriteBehindBytes   uint64             `json:"writebehind_bytes"`
	ChunkFillRatio     float64            `json:"chunk_fill_ratio"`
	WindowOccupancy    stats.HistSnapshot `json:"window_occupancy"`
	RetransmittedOps   uint64             `json:"retransmitted_ops"`
	RetransmittedBytes uint64             `json:"retransmitted_bytes"`
	SyncSmallWrites    uint64             `json:"sync_small_writes"`
}

// IOStats captures the client's pipeline counters.
func (c *Client) IOStats() IOStats {
	m := &c.io
	st := IOStats{
		ReadAheadHits:      m.raHits.Load(),
		ReadAheadMisses:    m.raMisses.Load(),
		ReadAheadChunks:    m.raChunks.Load(),
		WriteBehindChunks:  m.wbChunks.Load(),
		WriteBehindBytes:   m.wbBytes.Load(),
		WindowOccupancy:    m.wbWindowOcc.Snapshot(),
		RetransmittedOps:   m.retransOps.Load(),
		RetransmittedBytes: m.retransB.Load(),
		SyncSmallWrites:    m.syncSmall.Load(),
	}
	if st.WriteBehindChunks > 0 {
		st.ChunkFillRatio = float64(st.WriteBehindBytes) / float64(st.WriteBehindChunks*wireChunk)
	}
	return st
}

// MountStats is one mounted file system's connection-wide RPC/cache
// counters, labeled by its self-certifying root.
type MountStats struct {
	Path     string `json:"path"`
	ReadOnly bool   `json:"read_only,omitempty"`
	Calls    uint64 `json:"calls"`
	AttrHits uint64 `json:"attr_hits"`
	AccHits  uint64 `json:"access_hits"`
	Invals   uint64 `json:"invalidations"`
	// Lease cache (one record per handle): name_hits avoided a LOOKUP;
	// name_installs are names a reply other than LOOKUP's taught it;
	// forgets are handles dropped by a callback or an own mutation,
	// swept the records reclaimed after their leases expired; records
	// is the current table size.
	NameHits     uint64 `json:"name_hits"`
	NameInstalls uint64 `json:"name_installs"`
	Forgets      uint64 `json:"forgets"`
	Swept        uint64 `json:"swept"`
	Records      uint64 `json:"records"`
	// Data block cache (PR 5): hits avoided a READ RPC entirely;
	// bytes_cached is the current occupancy; singleflight_shared
	// counts cold reads that rode another reader's RPC.
	DataHits           uint64 `json:"data_hits"`
	DataMisses         uint64 `json:"data_misses"`
	DataBytesCached    uint64 `json:"data_bytes_cached"`
	DataEvictions      uint64 `json:"data_evictions"`
	SingleFlightShared uint64 `json:"singleflight_shared"`
	CacheLocks         uint64 `json:"cache_locks"`
	CacheContended     uint64 `json:"cache_contended"`
	// Stages is the client-observed per-stage latency breakdown of
	// this mount's RPCs (present only when tracing is enabled).
	Stages *stats.StageSetSnapshot `json:"stages,omitempty"`
}

// mountStats snapshots every live mount's counters.
func (c *Client) mountStats() []MountStats {
	c.mu.Lock()
	mounts := make([]*mount, 0, len(c.mounts))
	for _, m := range c.mounts {
		mounts = append(mounts, m)
	}
	c.mu.Unlock()
	out := make([]MountStats, 0, len(mounts))
	for _, m := range mounts {
		var st MountStats
		st.Path = m.path.String()
		var ns View
		if m.ro != nil {
			st.ReadOnly = true
			ns = m.ro
		} else {
			ns = m.base
		}
		s := ns.Stats()
		st.Calls, st.AttrHits, st.AccHits, st.Invals = s.Calls, s.AttrHits, s.AccessHits, s.Invals
		st.NameHits, st.NameInstalls, st.Forgets, st.Swept, st.Records = s.NameHits, s.NameInstalls, s.Forgets, s.Swept, s.Records
		st.DataHits, st.DataMisses, st.DataBytesCached = s.DataHits, s.DataMisses, s.DataBytesCached
		st.DataEvictions, st.SingleFlightShared = s.Evictions, s.SingleFlightShared
		st.CacheLocks, st.CacheContended = s.CacheLocks, s.CacheContended
		if m.base != nil {
			st.Stages = m.base.StageSnapshot()
		}
		out = append(out, st)
	}
	return out
}

// TotalRPCs sums the RPCs sent across every live mount — what the
// sfscd shell's -v mode diffs around each command to report "N RPCs".
func (c *Client) TotalRPCs() uint64 {
	var n uint64
	for _, m := range c.mountStats() {
		n += m.Calls
	}
	return n
}

// Snapshot is the sfscd "stats" command / -stats endpoint view of the
// client: pipeline counters plus per-mount RPC and cache totals.
type Snapshot struct {
	IO     IOStats      `json:"io"`
	Mounts []MountStats `json:"mounts,omitempty"`
	// WireCopy is the process-wide zero-copy wire path accounting
	// (DESIGN.md §12): on the client it mostly reflects borrowed WRITE
	// args on the way out and borrowed READ reply data on the way in.
	WireCopy stats.WireCopyStats `json:"wire_copy"`
}

// StatsSnapshot captures the whole client.
func (c *Client) StatsSnapshot() Snapshot {
	return Snapshot{IO: c.IOStats(), Mounts: c.mountStats(), WireCopy: stats.WireCopySnapshot()}
}
