package secchan

// Session resumption (DESIGN.md §14). A full handshake costs the
// server a Rabin private-key decrypt; under a reconnect storm that
// public-key work is the bottleneck. Resumption lets a client that
// already proved the server's key once re-establish a channel with
// three SHA-1 computations and no public-key operations:
//
//  1. at the end of every handshake — full or resumed — both sides
//     derive a resume master secret from the session keys,
//
//     RMS = SHA-1("ResumeMaster", KeyCS, KeySC),
//
//     and the server caches it under the session ID (bounded CLOCK
//     cache, byte budget + TTL);
//  2. to reconnect, the client sends SFS_RESUME carrying the old
//     session ID and a fresh nonce N_C in the clear; on a cache hit
//     the server answers its own nonce N_S and both sides rekey:
//
//     KeyCS' = SHA-1("ResumeKCS", RMS, N_C, N_S)
//     KeySC' = SHA-1("ResumeKSC", RMS, N_C, N_S)
//
//     with the new session ID computed by the usual SessionInfo
//     formula. Key material therefore never outlives a connection —
//     every resumption mints fresh channel keys — and an attacker who
//     observes or replays the clear-text hello cannot MAC a single
//     record without the RMS. On a cache miss the server answers
//     "miss" and the client falls back to a full SFS_CONNECT on the
//     same connection, so a restarted server costs one extra round
//     trip, never a failed mount.
//
// Tickets are single-use: the server consumes the cache entry on hit
// and inserts a new one for the rekeyed session, so a stolen ticket
// races its owner at most once and the cache never accumulates dead
// sessions. Each entry is bound to the (hostID, location, service)
// the session was established for; a resumption claiming any other
// endpoint is treated as a miss, so a ticket cannot be redeemed
// against a different served FS on the same master. Forward secrecy
// is coarser than a full handshake's — the RMS lives in server memory
// for the cache TTL — which is the same tradeoff TLS session tickets
// make; the TTL and byte budget bound it.

import (
	"crypto/sha1"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/stats"
)

// Resume response status codes.
const (
	resumeOK   = 0
	resumeMiss = 1
)

// ResumeRequest is the clear-text resumption hello: the SFS_CONNECT
// announcement fields plus the session being resumed and the client's
// rekey nonce.
type ResumeRequest struct {
	Tag        string // "SFS_RESUME"
	Service    uint32
	Version    uint32
	Location   string
	HostID     [core.HostIDSize]byte
	SessionID  [sha1.Size]byte
	NonceC     [keyHalf]byte
	Extensions []string
}

// resumeResponse answers a resumption hello: the server's rekey nonce
// on a hit, or a miss telling the client to fall back to SFS_CONNECT
// on the same connection.
type resumeResponse struct {
	Status uint32
	NonceS [keyHalf]byte
}

// ResumeTicket is the client's half of a cached session: everything
// needed to reconnect without public-key work. The secret never
// leaves the struct; callers treat tickets as opaque and replace them
// wholesale after every handshake (each established session, full or
// resumed, mints a fresh one in Info.Ticket).
type ResumeTicket struct {
	sessionID [sha1.Size]byte
	rms       [keyHalf]byte
}

// SessionID names the cached session this ticket resumes.
func (t *ResumeTicket) SessionID() [sha1.Size]byte { return t.sessionID }

// resumeMaster derives the resume master secret from a session's
// channel keys.
func resumeMaster(cs, sc []byte) (rms [keyHalf]byte) {
	h := sha1.New()
	h.Write([]byte("ResumeMaster"))
	h.Write(cs)
	h.Write(sc)
	h.Sum(rms[:0])
	return rms
}

// resumeKeys rekeys a resumed session: fresh per-direction keys from
// the RMS and both nonces, session ID by the usual formula.
func resumeKeys(rms [keyHalf]byte, nonceC, nonceS [keyHalf]byte) (cs, sc [keyHalf]byte, sessionID [sha1.Size]byte) {
	kcs := sha1.New()
	kcs.Write([]byte("ResumeKCS"))
	kcs.Write(rms[:])
	kcs.Write(nonceC[:])
	kcs.Write(nonceS[:])
	kcs.Sum(cs[:0])
	ksc := sha1.New()
	ksc.Write([]byte("ResumeKSC"))
	ksc.Write(rms[:])
	ksc.Write(nonceC[:])
	ksc.Write(nonceS[:])
	ksc.Sum(sc[:0])
	sid := sha1.New()
	sid.Write([]byte("SessionInfo"))
	sid.Write(cs[:])
	sid.Write(sc[:])
	sid.Sum(sessionID[:0])
	return cs, sc, sessionID
}

// mintTicket builds the next connection's ticket from an established
// session's keys.
func mintTicket(sessionID [sha1.Size]byte, cs, sc []byte) *ResumeTicket {
	return &ResumeTicket{sessionID: sessionID, rms: resumeMaster(cs, sc)}
}

// ---------------------------------------------------------------------
// Server-side session cache.

// resumeEntryBytes is the accounting cost of one cache entry: the
// 40 secret bytes plus struct, map-bucket, and ring overhead. The
// location string is accounted on top since its length is
// peer-influenced. The budget is a memory bound, not an exact
// science; what matters is that N entries cost O(N) accounted bytes.
const resumeEntryBytes = 128

// resumeBinding ties a cached session to the endpoint it was
// established for. take() requires the resuming client to present the
// same (hostID, location, service) triple, so a ticket minted against
// one served FS cannot be redeemed while claiming another.
type resumeBinding struct {
	hostID   [core.HostIDSize]byte
	location string
	service  uint32
}

type resumeEntry struct {
	sid     [sha1.Size]byte
	rms     [keyHalf]byte
	binding resumeBinding
	expires time.Time
	cost    int64
	idx     int  // position in ring, maintained across swap-removal
	ref     bool // CLOCK reference bit
}

// ResumeCache is the server's bounded session cache: session ID →
// resume master secret, CLOCK-evicted under a byte budget, entries
// expiring after a TTL. All methods are safe for concurrent use.
type ResumeCache struct {
	mu      sync.Mutex
	max     int64
	ttl     time.Duration
	entries map[[sha1.Size]byte]*resumeEntry
	ring    []*resumeEntry // CLOCK ring; every live entry, nothing else
	hand    int
	bytes   int64
	now     func() time.Time // injectable for expiry tests

	hits, misses, expired stats.Counter
	inserts, evictions    stats.Counter
	bindingMiss           stats.Counter
}

// NewResumeCache builds a cache holding at most maxBytes of accounted
// entries whose tickets expire after ttl. maxBytes <= 0 selects 1 MiB;
// ttl <= 0 selects one hour (the paper's temp-key cadence).
func NewResumeCache(maxBytes int64, ttl time.Duration) *ResumeCache {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	if maxBytes < resumeEntryBytes {
		maxBytes = resumeEntryBytes
	}
	if ttl <= 0 {
		ttl = time.Hour
	}
	return &ResumeCache{
		max:     maxBytes,
		ttl:     ttl,
		entries: make(map[[sha1.Size]byte]*resumeEntry),
		now:     time.Now,
	}
}

// put caches a freshly established session bound to its endpoint.
func (c *ResumeCache) put(sid [sha1.Size]byte, rms [keyHalf]byte, binding resumeBinding) {
	if c == nil {
		return
	}
	cost := int64(resumeEntryBytes + len(binding.location))
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[sid]; ok {
		e.rms = rms
		e.binding = binding
		e.expires = c.now().Add(c.ttl)
		e.ref = true
		c.bytes += cost - e.cost
		e.cost = cost
		return
	}
	for c.bytes+cost > c.max && c.evictOne() {
	}
	e := &resumeEntry{
		sid: sid, rms: rms, binding: binding,
		expires: c.now().Add(c.ttl), cost: cost,
		idx: len(c.ring), ref: true,
	}
	c.entries[sid] = e
	c.ring = append(c.ring, e)
	c.bytes += cost
	c.inserts.Inc()
}

// removeLocked unlinks e from the map and swap-removes it from the
// CLOCK ring in O(1), so consumed tickets never linger as dead slots
// (the ring holds exactly the live entries at all times). Approximate
// CLOCK order is fine — the swapped-in entry keeps its reference bit.
func (c *ResumeCache) removeLocked(e *resumeEntry) {
	delete(c.entries, e.sid)
	last := len(c.ring) - 1
	moved := c.ring[last]
	c.ring[e.idx] = moved
	moved.idx = e.idx
	c.ring[last] = nil
	c.ring = c.ring[:last]
	c.bytes -= e.cost
	// The hand is re-clamped at the top of evictOne's sweep.
}

// evictOne advances the CLOCK hand to the first unreferenced entry and
// evicts it. Reports whether an entry was freed.
func (c *ResumeCache) evictOne() bool {
	for pass := 0; pass <= 2*len(c.ring); pass++ {
		if len(c.ring) == 0 {
			return false
		}
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		e := c.ring[c.hand]
		if e.ref {
			e.ref = false
			c.hand++
			continue
		}
		c.removeLocked(e)
		c.evictions.Inc()
		return true
	}
	return false
}

// take consumes the entry for sid if present, unexpired, and bound to
// the same endpoint the caller presents. Tickets are single-use: any
// lookup — hit, expired, or binding mismatch — removes the entry (the
// resumed session's new ticket is inserted by the caller).
func (c *ResumeCache) take(sid [sha1.Size]byte, binding resumeBinding) (rms [keyHalf]byte, ok bool) {
	if c == nil {
		return rms, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.entries[sid]
	if !found {
		c.misses.Inc()
		return rms, false
	}
	c.removeLocked(e)
	if c.now().After(e.expires) {
		c.expired.Inc()
		c.misses.Inc()
		return rms, false
	}
	if e.binding != binding {
		c.bindingMiss.Inc()
		c.misses.Inc()
		return rms, false
	}
	c.hits.Inc()
	return e.rms, true
}

// ResumeCacheStats is the JSON form of a cache's counters.
type ResumeCacheStats struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Expired     uint64 `json:"expired,omitempty"`
	BindingMiss uint64 `json:"binding_misses,omitempty"`
	Inserts     uint64 `json:"inserts"`
	Evictions   uint64 `json:"evictions"`
}

// Stats captures the cache's counters.
func (c *ResumeCache) Stats() ResumeCacheStats {
	if c == nil {
		return ResumeCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResumeCacheStats{
		Entries:     len(c.entries),
		Bytes:       c.bytes,
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Expired:     c.expired.Load(),
		BindingMiss: c.bindingMiss.Load(),
		Inserts:     c.inserts.Load(),
		Evictions:   c.evictions.Load(),
	}
}

// ---------------------------------------------------------------------
// Wire protocol.

// Hello is a parsed clear-text client hello: exactly one of Connect
// and Resume is non-nil.
type Hello struct {
	Connect *ConnectRequest
	Resume  *ResumeRequest
}

// ReadHello reads the client's clear-text hello — a full SFS_CONNECT
// announcement or an SFS_RESUME resumption — so the server master can
// route resumptions around the negotiation pool.
func ReadHello(conn io.Reader) (*Hello, error) {
	buf, err := readRecordPooled(conn)
	if err != nil {
		return nil, err
	}
	defer putMsgBuf(buf)
	tag, err := peekTag(buf.b)
	if err != nil {
		return nil, err
	}
	switch tag {
	case "SFS_CONNECT":
		var req ConnectRequest
		if err := unmarshalMsg(buf.b, &req); err != nil {
			return nil, err
		}
		return &Hello{Connect: &req}, nil
	case "SFS_RESUME":
		var req ResumeRequest
		if err := unmarshalMsg(buf.b, &req); err != nil {
			return nil, err
		}
		return &Hello{Resume: &req}, nil
	default:
		return nil, errors.New("secchan: bad hello tag")
	}
}

// RejectResume answers a resumption hello with a miss, telling the
// client to fall back to a full SFS_CONNECT on the same connection.
// Servers use it when the session is unknown, the pathname is revoked
// or not served, or resumption is disabled.
func RejectResume(conn io.Writer) error {
	return writeMsg(conn, resumeResponse{Status: resumeMiss})
}

// AcceptResume answers a resumption hello from cache. On a hit it
// completes the rekey, caches the resumed session's next ticket, and
// returns the established channel with hit = true; no public-key work
// runs. On a miss (or nil cache) it sends the miss response and
// returns hit = false with no error — the caller then reads the
// client's fallback SFS_CONNECT from the same connection.
func AcceptResume(conn io.ReadWriteCloser, req *ResumeRequest, cache *ResumeCache, rng *prng.Generator) (*Conn, *Info, bool, error) {
	binding := resumeBinding{hostID: req.HostID, location: req.Location, service: req.Service}
	rms, ok := cache.take(req.SessionID, binding)
	if !ok {
		return nil, nil, false, RejectResume(conn)
	}
	var resp resumeResponse
	resp.Status = resumeOK
	copy(resp.NonceS[:], rng.Bytes(keyHalf))
	cs, sc, sid := resumeKeys(rms, req.NonceC, resp.NonceS)
	// The next ticket is cached before the response that lets the
	// client compute it leaves: a client that reconnects the instant
	// the handshake completes must find it.
	cache.put(sid, resumeMaster(cs[:], sc[:]), binding)
	if err := writeMsg(conn, resp); err != nil {
		chanStats.handshakeF.Inc()
		return nil, nil, false, err
	}
	sec, err := newConn(conn, cs[:], sc[:], false)
	if err != nil {
		chanStats.handshakeF.Inc()
		return nil, nil, false, err
	}
	var hostID core.HostID
	copy(hostID[:], req.HostID[:])
	info := &Info{
		SessionID: sid, Location: req.Location, HostID: hostID,
		Service: req.Service, Version: req.Version, Extensions: req.Extensions,
	}
	chanStats.handshakes.Inc()
	chanStats.resumes.Inc()
	return sec, info, true, nil
}

// ClientHandshakeResume establishes a secure channel like
// ClientHandshake but first offers ticket for resumption. When the
// server still holds the session the channel comes up with one SHA-1
// mix and no Rabin operations; otherwise the client falls back to the
// full handshake on the same connection. A nil ticket is exactly
// ClientHandshake. The returned Info.Ticket is the fresh ticket for
// the next reconnect in either case.
func ClientHandshakeResume(conn io.ReadWriteCloser, service uint32, path core.Path, tempKey *rabin.PrivateKey, rng *prng.Generator, ticket *ResumeTicket, extensions ...string) (*Conn, *Info, *core.PathRevoke, error) {
	if ticket == nil {
		return ClientHandshake(conn, service, path, tempKey, rng, extensions...)
	}
	if extensions == nil {
		extensions = []string{}
	}
	req := ResumeRequest{
		Tag: "SFS_RESUME", Service: service, Version: 1,
		Location: path.Location, HostID: path.HostID,
		SessionID: ticket.sessionID, Extensions: extensions,
	}
	copy(req.NonceC[:], rng.Bytes(keyHalf))
	if err := writeMsg(conn, req); err != nil {
		chanStats.handshakeF.Inc()
		return nil, nil, nil, err
	}
	var resp resumeResponse
	if err := readMsg(conn, &resp); err != nil {
		chanStats.handshakeF.Inc()
		return nil, nil, nil, err
	}
	switch resp.Status {
	case resumeOK:
	case resumeMiss:
		// The server no longer holds the session (restart, expiry,
		// eviction): complete a full handshake on the same connection.
		chanStats.resumeMisses.Inc()
		return ClientHandshake(conn, service, path, tempKey, rng, extensions...)
	default:
		chanStats.handshakeF.Inc()
		return nil, nil, nil, errors.New("secchan: bad resume status")
	}
	cs, sc, sid := resumeKeys(ticket.rms, req.NonceC, resp.NonceS)
	sec, err := newConn(conn, cs[:], sc[:], true)
	if err != nil {
		chanStats.handshakeF.Inc()
		return nil, nil, nil, err
	}
	info := &Info{
		SessionID: sid, Location: path.Location, HostID: path.HostID,
		Service: service, Version: req.Version, Extensions: extensions,
		Ticket: mintTicket(sid, cs[:], sc[:]),
	}
	chanStats.handshakes.Inc()
	chanStats.resumes.Inc()
	return sec, info, nil, nil
}
