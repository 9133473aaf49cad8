package secchan

// Channel-layer observability. Conns are per-connection and
// short-lived relative to a daemon, so the counters are process-wide
// package globals: every sealed and opened record in the process
// lands here, which is exactly the granularity the daemons' -stats
// snapshot wants. All increments are atomic adds on the seal/open
// hot path — no allocations (the seal-path ReportAllocs benchmarks
// stay at 0 allocs/op).

import "repro/internal/stats"

var chanStats struct {
	seals, opens           stats.Counter
	sealPlain, sealCipher  stats.Counter
	openPlain, openCipher  stats.Counter
	macDrops               stats.Counter
	handshakes, handshakeF stats.Counter
	// rabinDecrypts counts private-key decrypt operations on the
	// handshake paths — the public-key cost a resumption avoids.
	// server.TestResumeReconnectThroughMaster asserts a full handshake
	// adds two and a resumed reconnect none.
	rabinDecrypts stats.Counter
	// resumes counts handshakes established via session resumption
	// (each end of an in-process pair increments once, like
	// handshakes); resumeMisses counts client-side fallbacks to the
	// full handshake after the server forgot the session.
	resumes, resumeMisses stats.Counter
}

// Snapshot is the JSON form of the package-wide channel counters.
// Cipher bytes include the per-record length header and MAC trailer;
// plain bytes are payload only, so cipher−plain is the channel's
// framing overhead. MACDrops counts records rejected by MAC
// verification — with a stream-position-keyed MAC this is where
// replayed, reordered, or tampered records land (the channel's
// replay window is the cipher stream itself; see DESIGN.md §3).
type Snapshot struct {
	Seals          uint64 `json:"seals"`
	Opens          uint64 `json:"opens"`
	SealPlainBytes uint64 `json:"seal_plain_bytes"`
	SealWireBytes  uint64 `json:"seal_wire_bytes"`
	OpenPlainBytes uint64 `json:"open_plain_bytes"`
	OpenWireBytes  uint64 `json:"open_wire_bytes"`
	MACDrops       uint64 `json:"mac_drops"`
	Handshakes     uint64 `json:"handshakes"`
	HandshakeFails uint64 `json:"handshake_fails,omitempty"`
	RabinDecrypts  uint64 `json:"rabin_decrypts"`
	Resumes        uint64 `json:"resumes"`
	ResumeMisses   uint64 `json:"resume_misses,omitempty"`
}

// StatsSnapshot captures the process-wide channel counters.
func StatsSnapshot() Snapshot {
	return Snapshot{
		Seals:          chanStats.seals.Load(),
		Opens:          chanStats.opens.Load(),
		SealPlainBytes: chanStats.sealPlain.Load(),
		SealWireBytes:  chanStats.sealCipher.Load(),
		OpenPlainBytes: chanStats.openPlain.Load(),
		OpenWireBytes:  chanStats.openCipher.Load(),
		MACDrops:       chanStats.macDrops.Load(),
		Handshakes:     chanStats.handshakes.Load(),
		HandshakeFails: chanStats.handshakeF.Load(),
		RabinDecrypts:  chanStats.rabinDecrypts.Load(),
		Resumes:        chanStats.resumes.Load(),
		ResumeMisses:   chanStats.resumeMisses.Load(),
	}
}
