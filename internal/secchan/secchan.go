// Package secchan implements SFS's low-level secure channel: the key
// negotiation protocol of paper §3.1.1 (Figure 3) and the encrypted,
// MACed record framing of §3.1.3.
//
// Connection establishment proceeds in the clear:
//
//  1. the client announces the Location and HostID it wants, plus the
//     service (file server or authserver) and protocol extensions;
//  2. the server responds with its public key K_S — or with a signed
//     revocation certificate for that HostID;
//  3. the client checks SHA-1("HostInfo", Location, K_S, ...) against
//     the pathname's HostID. A matching key is the correct key, by the
//     collision resistance of SHA-1; no external trust is involved.
//
// Key negotiation then provides forward secrecy: the client sends a
// short-lived public key K_C' and the key halves k_C1, k_C2 encrypted
// under K_S; the server replies with k_S1, k_S2 encrypted under K_C'.
// Both sides compute
//
//	KeyCS = SHA-1("KCS", K_S, k_S1, K_C', k_C1)
//	KeySC = SHA-1("KSC", K_S, k_S2, K_C', k_C2)
//
// and use one 20-byte ARC4 stream per direction. Every record's MAC
// is keyed with 32 bytes pulled from that direction's stream (bytes
// never used for encryption), computed over the length and plaintext,
// and the length, message, and MAC are all encrypted. An attacker who
// later compromises the server's long-lived key cannot decrypt
// recorded sessions: the client discards K_C' regularly.
package secchan

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/arc4"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/crypto/sha1mac"
	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// Services a client can request from the server master, which
// dispatches connections by service, version, and pathname (§3.2).
const (
	ServiceFile = 1
	ServiceAuth = 2
	// ServiceFileRO selects the read-only dialect (§2.4): servers
	// prove file system contents with precomputed signatures.
	ServiceFileRO = 3
)

// Connect response status codes.
const (
	connectOK      = 0
	connectRevoked = 1
	connectNoSuch  = 2
	// connectBusy is the admission-control fast-reject: the server's
	// negotiation pool and backlog are full, so it sheds the handshake
	// immediately instead of queuing it unboundedly (DESIGN.md §14).
	connectBusy = 3
)

// Errors.
var (
	// ErrHostIDMismatch means the server presented a key that does
	// not hash to the requested HostID: a wrong or malicious server.
	ErrHostIDMismatch = errors.New("secchan: server key does not match HostID")
	// ErrRevoked means the server answered with a valid revocation
	// certificate for the requested HostID.
	ErrRevoked = errors.New("secchan: self-certifying pathname has been revoked")
	// ErrNoSuchFS means the server does not serve the requested
	// pathname.
	ErrNoSuchFS = errors.New("secchan: server does not serve this file system")
	// ErrBadMAC means record authentication failed; the channel is
	// dead.
	ErrBadMAC = errors.New("secchan: message authentication failed")
	// ErrServerBusy means the server shed the handshake at admission:
	// its negotiation pool and backlog are saturated. The client may
	// retry with backoff.
	ErrServerBusy = errors.New("secchan: server is at handshake capacity")
)

const keyHalf = 20 // bytes per key half

// ConnectRequest is the clear-text connection announcement.
type ConnectRequest struct {
	Tag        string // "SFS_CONNECT"
	Service    uint32
	Version    uint32
	Location   string
	HostID     [core.HostIDSize]byte
	Extensions []string
}

// connectResponse carries the server key or a revocation certificate.
type connectResponse struct {
	Status     uint32
	ServerKey  []byte
	Revocation []byte // marshaled core.PathRevoke when Status == connectRevoked
}

// keyNegRequest is the client half of Figure 3 step 3.
type keyNegRequest struct {
	Tag       string // "SFS_KEYNEG"
	TempKey   []byte // K_C' canonical encoding
	KeyHalves []byte // {k_C1, k_C2} encrypted under K_S
}

// keyNegResponse is the server half, step 4.
type keyNegResponse struct {
	KeyHalves []byte // {k_S1, k_S2} encrypted under K_C'
}

// Info describes an established channel.
type Info struct {
	// SessionID = SHA-1("SessionInfo", KeyCS, KeySC); user
	// authentication binds signatures to it (§3.1.2).
	SessionID [sha1.Size]byte
	// Location and HostID of the server end.
	Location string
	HostID   core.HostID
	// Service the client requested.
	Service uint32
	// Version the client requested.
	Version uint32
	// Extensions from the connect request.
	Extensions []string
	// Ticket resumes this session on the next reconnect without
	// public-key work (client side only; nil on the server side and on
	// plain connects). Every established session mints a fresh one.
	Ticket *ResumeTicket
	// Grants is the session's login table (server side only). The
	// resumption cache keeps a pointer to it, so the session that
	// resumes this one can carry its logins over.
	Grants *sfsrpc.Grants
	// Resumed is set when the session was established by resumption,
	// on both ends; nil after a full handshake.
	Resumed *Resumed
}

func sessionKeys(serverKey, tempKey []byte, cHalves, sHalves []byte) (cs, sc [keyHalf]byte, sessionID [sha1.Size]byte) {
	kcs := sha1.New()
	kcs.Write([]byte("KCS"))
	kcs.Write(serverKey)
	kcs.Write(sHalves[:keyHalf])
	kcs.Write(tempKey)
	kcs.Write(cHalves[:keyHalf])
	copy(cs[:], kcs.Sum(nil))
	ksc := sha1.New()
	ksc.Write([]byte("KSC"))
	ksc.Write(serverKey)
	ksc.Write(sHalves[keyHalf:])
	ksc.Write(tempKey)
	ksc.Write(cHalves[keyHalf:])
	copy(sc[:], ksc.Sum(nil))
	sid := sha1.New()
	sid.Write([]byte("SessionInfo"))
	sid.Write(cs[:])
	sid.Write(sc[:])
	copy(sessionID[:], sid.Sum(nil))
	return cs, sc, sessionID
}

// maxHandshakeMsg bounds one clear-text handshake message. Connect
// and key-negotiation messages are a few hundred bytes (keys and
// encrypted halves); revocation certificates stay well under this.
// The tight bound doubles as storm hardening: a hostile peer cannot
// make the server stage megabytes before the handshake even starts.
const maxHandshakeMsg = 64 << 10

// writeMsg marshals one handshake message through a pooled encoder
// straight into the record-framing path — no per-message marshal
// buffer (the handshake allocation budget is tracked by
// BenchmarkHandshake/BenchmarkResume).
func writeMsg(w io.Writer, v interface{}) error {
	e := xdr.GetEncoder()
	err := e.Encode(v)
	if err == nil {
		err = sunrpc.WriteRecordEncoder(w, e)
	}
	xdr.PutEncoder(e)
	return err
}

// msgBuf is pooled scratch for reading one handshake record.
type msgBuf struct{ b []byte }

var msgBufPool = sync.Pool{
	New: func() interface{} { return &msgBuf{b: make([]byte, 512)} },
}

func putMsgBuf(m *msgBuf) {
	if cap(m.b) <= maxHandshakeMsg {
		msgBufPool.Put(m)
	}
}

// readRecordPooled reads one record-marked handshake message into
// pooled scratch. The caller must putMsgBuf the result after decoding
// (the XDR decoder copies, so nothing retains the scratch).
func readRecordPooled(r io.Reader) (*msgBuf, error) {
	m := msgBufPool.Get().(*msgBuf)
	hdr := m.b[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		putMsgBuf(m)
		return nil, err
	}
	h := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
	total := 0
	for {
		n := int(h & 0x7fffffff)
		// Bound n before any arithmetic: on 32-bit platforms total+n
		// could wrap negative and slip past a combined check.
		if n > maxHandshakeMsg || total > maxHandshakeMsg-n {
			putMsgBuf(m)
			return nil, errors.New("secchan: oversized handshake message")
		}
		if cap(m.b) < total+n {
			grown := make([]byte, total+n)
			copy(grown, m.b[:total])
			m.b = grown
		}
		m.b = m.b[:total+n]
		if _, err := io.ReadFull(r, m.b[total:]); err != nil {
			putMsgBuf(m)
			return nil, err
		}
		total += n
		if h&0x80000000 != 0 { // last fragment: the only case writeMsg emits
			return m, nil
		}
		var fh [4]byte
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			putMsgBuf(m)
			return nil, err
		}
		h = uint32(fh[0])<<24 | uint32(fh[1])<<16 | uint32(fh[2])<<8 | uint32(fh[3])
	}
}

// peekTag decodes the leading XDR string of a hello message so the
// reader can pick the right struct before unmarshaling.
func peekTag(b []byte) (string, error) {
	var tag string
	if err := xdr.NewDecoder(b).Decode(&tag); err != nil {
		return "", err
	}
	return tag, nil
}

// unmarshalMsg decodes a whole handshake message from pooled scratch.
func unmarshalMsg(b []byte, v interface{}) error {
	return xdr.Unmarshal(b, v)
}

func readMsg(r io.Reader, v interface{}) error {
	m, err := readRecordPooled(r)
	if err != nil {
		return err
	}
	err = unmarshalMsg(m.b, v)
	putMsgBuf(m)
	return err
}

// ClientHandshake establishes a secure channel to the server for path.
// tempKey is the client's short-lived key K_C'; callers regenerate it
// on an interval (hourly in the paper) for forward secrecy. If the
// server answers with a valid revocation certificate, the returned
// error is ErrRevoked and the certificate is returned for the agent.
func ClientHandshake(conn io.ReadWriteCloser, service uint32, path core.Path, tempKey *rabin.PrivateKey, rng *prng.Generator, extensions ...string) (*Conn, *Info, *core.PathRevoke, error) {
	c, info, cert, err := clientHandshake(conn, service, path, tempKey, rng, extensions...)
	if err != nil {
		chanStats.handshakeF.Inc()
	} else {
		chanStats.handshakes.Inc()
	}
	return c, info, cert, err
}

func clientHandshake(conn io.ReadWriteCloser, service uint32, path core.Path, tempKey *rabin.PrivateKey, rng *prng.Generator, extensions ...string) (*Conn, *Info, *core.PathRevoke, error) {
	if extensions == nil {
		extensions = []string{}
	}
	req := ConnectRequest{
		Tag: "SFS_CONNECT", Service: service, Version: 1,
		Location: path.Location, HostID: path.HostID, Extensions: extensions,
	}
	if err := writeMsg(conn, req); err != nil {
		return nil, nil, nil, err
	}
	var resp connectResponse
	if err := readMsg(conn, &resp); err != nil {
		return nil, nil, nil, err
	}
	switch resp.Status {
	case connectOK:
	case connectRevoked:
		cert, id, err := core.ParsePathRevoke(resp.Revocation)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("secchan: server sent invalid revocation: %w", err)
		}
		if id != path.HostID {
			return nil, nil, nil, errors.New("secchan: revocation is for a different HostID")
		}
		return nil, nil, cert, ErrRevoked
	case connectNoSuch:
		return nil, nil, nil, ErrNoSuchFS
	case connectBusy:
		return nil, nil, nil, ErrServerBusy
	default:
		return nil, nil, nil, fmt.Errorf("secchan: bad connect status %d", resp.Status)
	}
	// Verify the key against the pathname: this is the entire trust
	// decision.
	if core.ComputeHostID(path.Location, resp.ServerKey) != path.HostID {
		return nil, nil, nil, ErrHostIDMismatch
	}
	serverPub, err := rabin.ParsePublicKey(resp.ServerKey)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("secchan: server key: %w", err)
	}
	// Key negotiation.
	cHalves := rng.Bytes(2 * keyHalf)
	encC, err := serverPub.Encrypt(rng, cHalves)
	if err != nil {
		return nil, nil, nil, err
	}
	tempPub := tempKey.PublicKey.Bytes()
	if err := writeMsg(conn, keyNegRequest{Tag: "SFS_KEYNEG", TempKey: tempPub, KeyHalves: encC}); err != nil {
		return nil, nil, nil, err
	}
	var negResp keyNegResponse
	if err := readMsg(conn, &negResp); err != nil {
		return nil, nil, nil, err
	}
	chanStats.rabinDecrypts.Inc()
	sHalves, err := tempKey.Decrypt(negResp.KeyHalves)
	if err != nil || len(sHalves) != 2*keyHalf {
		return nil, nil, nil, errors.New("secchan: bad server key halves")
	}
	cs, sc, sid := sessionKeys(resp.ServerKey, tempPub, cHalves, sHalves)
	sec, err := newConn(conn, cs[:], sc[:], true)
	if err != nil {
		return nil, nil, nil, err
	}
	info := &Info{
		SessionID: sid, Location: path.Location, HostID: path.HostID,
		Service: service, Version: req.Version, Extensions: extensions,
		Ticket: mintTicket(sid, cs[:], sc[:]),
	}
	return sec, info, nil, nil
}

// ClientConnectPlain performs the connect exchange without key
// negotiation: it announces the pathname, receives the server's
// public key, and verifies it against the HostID. The read-only
// dialect uses this — its data is self-certifying block by block, so
// no secure channel is needed, and replicas hold no private key.
func ClientConnectPlain(conn io.ReadWriter, service uint32, path core.Path, extensions ...string) (*core.PathRevoke, error) {
	if extensions == nil {
		extensions = []string{}
	}
	req := ConnectRequest{
		Tag: "SFS_CONNECT", Service: service, Version: 1,
		Location: path.Location, HostID: path.HostID, Extensions: extensions,
	}
	if err := writeMsg(conn, req); err != nil {
		return nil, err
	}
	var resp connectResponse
	if err := readMsg(conn, &resp); err != nil {
		return nil, err
	}
	switch resp.Status {
	case connectOK:
	case connectRevoked:
		cert, id, err := core.ParsePathRevoke(resp.Revocation)
		if err != nil {
			return nil, fmt.Errorf("secchan: server sent invalid revocation: %w", err)
		}
		if id != path.HostID {
			return nil, errors.New("secchan: revocation is for a different HostID")
		}
		return cert, ErrRevoked
	case connectNoSuch:
		return nil, ErrNoSuchFS
	case connectBusy:
		return nil, ErrServerBusy
	default:
		return nil, fmt.Errorf("secchan: bad connect status %d", resp.Status)
	}
	if core.ComputeHostID(path.Location, resp.ServerKey) != path.HostID {
		return nil, ErrHostIDMismatch
	}
	return nil, nil
}

// AcceptPlain answers a connect request with the server's public key
// and no key negotiation (read-only dialect).
func AcceptPlain(conn io.Writer, serverKey []byte) error {
	return writeMsg(conn, connectResponse{Status: connectOK, ServerKey: serverKey, Revocation: []byte{}})
}

// ReadConnect reads the client's clear-text connect announcement so a
// server master can decide how to dispatch the connection.
func ReadConnect(conn io.Reader) (*ConnectRequest, error) {
	var req ConnectRequest
	if err := readMsg(conn, &req); err != nil {
		return nil, err
	}
	if req.Tag != "SFS_CONNECT" {
		return nil, errors.New("secchan: bad connect tag")
	}
	return &req, nil
}

// RejectNoSuchFS tells the client this server does not serve the
// requested file system.
func RejectNoSuchFS(conn io.Writer) error {
	return writeMsg(conn, connectResponse{Status: connectNoSuch, ServerKey: []byte{}, Revocation: []byte{}})
}

// RejectRevoked answers the connect with a revocation certificate.
func RejectRevoked(conn io.Writer, cert *core.PathRevoke) error {
	return writeMsg(conn, connectResponse{Status: connectRevoked, ServerKey: []byte{}, Revocation: cert.Marshal()})
}

// RejectBusy sheds the connect at admission: the server's negotiation
// pool and backlog are full. The client sees ErrServerBusy.
func RejectBusy(conn io.Writer) error {
	return writeMsg(conn, connectResponse{Status: connectBusy, ServerKey: []byte{}, Revocation: []byte{}})
}

// ServerHandshakeSession completes the server side of connection setup
// for a connect request that the caller has matched to priv. The
// established session's resume secret is cached so the client's next
// reconnect can skip the Rabin decrypt; a nil cache disables resumption
// for this session.
func ServerHandshakeSession(conn io.ReadWriteCloser, req *ConnectRequest, priv *rabin.PrivateKey, rng *prng.Generator, cache *ResumeCache) (*Conn, *Info, error) {
	c, info, err := serverHandshake(conn, req, priv, rng, cache)
	if err != nil {
		chanStats.handshakeF.Inc()
	} else {
		chanStats.handshakes.Inc()
	}
	return c, info, err
}

func serverHandshake(conn io.ReadWriteCloser, req *ConnectRequest, priv *rabin.PrivateKey, rng *prng.Generator, cache *ResumeCache) (*Conn, *Info, error) {
	pub := priv.PublicKey.Bytes()
	if err := writeMsg(conn, connectResponse{Status: connectOK, ServerKey: pub, Revocation: []byte{}}); err != nil {
		return nil, nil, err
	}
	var neg keyNegRequest
	if err := readMsg(conn, &neg); err != nil {
		return nil, nil, err
	}
	if neg.Tag != "SFS_KEYNEG" {
		return nil, nil, errors.New("secchan: bad keyneg tag")
	}
	chanStats.rabinDecrypts.Inc()
	cHalves, err := priv.Decrypt(neg.KeyHalves)
	if err != nil || len(cHalves) != 2*keyHalf {
		return nil, nil, errors.New("secchan: bad client key halves")
	}
	tempPub, err := rabin.ParsePublicKey(neg.TempKey)
	if err != nil {
		return nil, nil, fmt.Errorf("secchan: client temp key: %w", err)
	}
	sHalves := rng.Bytes(2 * keyHalf)
	encS, err := tempPub.Encrypt(rng, sHalves)
	if err != nil {
		return nil, nil, err
	}
	// Cached before the response leaves, as in AcceptResume.
	cs, sc, sid := sessionKeys(pub, neg.TempKey, cHalves, sHalves)
	grants := new(sfsrpc.Grants)
	cache.put(sid, resumeMaster(cs[:], sc[:]), grants,
		resumeBinding{hostID: req.HostID, location: req.Location, service: req.Service})
	if err := writeMsg(conn, keyNegResponse{KeyHalves: encS}); err != nil {
		return nil, nil, err
	}
	sec, err := newConn(conn, cs[:], sc[:], false)
	if err != nil {
		return nil, nil, err
	}
	var hostID core.HostID
	copy(hostID[:], req.HostID[:])
	info := &Info{
		SessionID: sid, Location: req.Location, HostID: hostID,
		Service: req.Service, Version: req.Version, Extensions: req.Extensions,
		Grants: grants,
	}
	return sec, info, nil
}

// Conn is an established secure channel. It implements
// io.ReadWriteCloser with record semantics compatible with the RPC
// layer's record marking: each Write seals one record; Read serves
// decrypted bytes in order.
type Conn struct {
	raw io.ReadWriteCloser
	// encrypt is true unless DisableEncryption ran before the first
	// record; never written afterwards.
	encrypt bool

	wmu        sync.Mutex
	send       *arc4.Cipher
	sealBuf    []byte // sealed-record scratch, guarded by wmu
	sendMacKey [sha1mac.KeySize]byte
	wsegs      [][]byte           // segment scratch for WriteSegments, guarded by wmu
	sendHdr    [4]byte            // record-length header for the vectored path
	sendMac    [sha1mac.Size]byte // MAC staging for the vectored path

	rmu        sync.Mutex
	recv       *arc4.Cipher
	recvMacKey [sha1mac.KeySize]byte
	// rbuf holds ciphertext as it came off the transport; the bytes not
	// yet parsed into records are rbuf[rpos:rend]. One transport Read
	// takes whatever the socket holds — all of a small record, or
	// several pipelined ones — and records are opened out of it.
	rbuf       []byte
	rpos, rend int
	rbufFull   bool   // the last transport read filled rbuf: the socket held more
	readBuf    []byte // plaintext of the current record Read has yet to deliver
	readErr    error

	// Stage-tracing work ledgers (DESIGN.md §13): cumulative
	// nanoseconds of seal (MAC + encrypt + staging, excluding the
	// transport write) and open (decrypt + MAC verify, excluding the
	// transport reads) work on this channel. Only accumulated once the
	// RPC layer has traced this connection (timed, set by TimeWork) —
	// one atomic load per record otherwise — and read by it as deltas
	// around one record.
	timed  atomic.Bool
	sealNS atomic.Int64
	openNS atomic.Int64
}

// TimeWork starts the channel's seal and open work ledgers
// (sunrpc.WorkTimer). No other channel in the process starts timing.
func (c *Conn) TimeWork() { c.timed.Store(true) }

// SealWorkNS returns the cumulative seal work on this channel in
// nanoseconds (sunrpc.WorkTimer).
func (c *Conn) SealWorkNS() int64 { return c.sealNS.Load() }

// OpenWorkNS returns the cumulative open work on this channel in
// nanoseconds (sunrpc.WorkTimer).
func (c *Conn) OpenWorkNS() int64 { return c.openNS.Load() }

// maxRetainedBuf caps the seal scratch a Conn keeps between records,
// so one oversized record cannot pin its buffer for the channel's
// lifetime.
const maxRetainedBuf = 1 << 20

// The receive buffer starts at recvBufMin — a login's channel carries
// four small records and must not pay for more — and doubles, up to
// recvBufMax, when a record does not fit or a transport read fills it.
// A record that cannot fit in recvBufMax bypasses the buffer.
const (
	recvBufMin = 512
	recvBufMax = 64 << 10
)

// DisableEncryption puts the channel in the paper's "SFS w/o
// encryption" configuration (Figure 5): records travel in the clear,
// still MACed, and the keystream still advances so both ends stay
// aligned. Both ends must agree — a mismatch fails the first record's
// length bound or MAC. It must be called after the handshake returns
// and before the first record is written or read; no handshake seals
// anything, so the owner of a fresh Conn can always do so.
func (c *Conn) DisableEncryption() { c.encrypt = false }

func newConn(raw io.ReadWriteCloser, keyCS, keySC []byte, isClient bool) (*Conn, error) {
	csCipher, err := arc4.New(keyCS)
	if err != nil {
		return nil, err
	}
	scCipher, err := arc4.New(keySC)
	if err != nil {
		return nil, err
	}
	c := &Conn{raw: raw, encrypt: true}
	if isClient {
		c.send, c.recv = csCipher, scCipher
	} else {
		c.send, c.recv = scCipher, csCipher
	}
	return c, nil
}

// sized returns buf resized to n, growing it only when needed; ret
// receives the buffer to retain for the next record (nil when n is too
// large to keep).
func sized(buf []byte, n int) (rec, ret []byte) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	rec = buf[:n]
	if n > maxRetainedBuf {
		return rec, nil
	}
	return rec, rec
}

// Write seals p as one record: the one-segment case of WriteSegments.
func (c *Conn) Write(p []byte) (int, error) {
	one := [1][]byte{p}
	n, _, err := c.WriteSegments(one[:])
	return n, err
}

// WriteSegments seals the concatenation of segs as one record without
// requiring a contiguous plaintext (sunrpc.SegmentWriter): a MAC keyed
// from the stream, over the length and plaintext; then length, payload
// and MAC encrypted. The MAC streams over the segments; then:
//
//   - encryption on: the record is sealed in place — each plaintext
//     byte is staged into the framing buffer by the same XOR pass that
//     encrypts it (arc4's dst≠src form), so framing costs one fused
//     copy+encrypt pass total, not a copy pass plus a crypto pass.
//   - encryption off: the header, borrowed segments, and MAC go to
//     the transport vectored, zero staging copies, when the transport
//     is itself a SegmentWriter (the keystream is skipped to stay
//     aligned with the peer).
//
// Segments must stay immutable until WriteSegments returns. copied
// reports the bytes staged through the framing buffer (the sealed
// record length when encrypting, 0 on the vectored plaintext path).
func (c *Conn) WriteSegments(segs [][]byte) (int, int, error) {
	plen := 0
	for _, s := range segs {
		plen += len(s)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var sealT0 time.Time
	if c.timed.Load() {
		sealT0 = time.Now()
	}
	c.send.KeyStreamInto(c.sendMacKey[:])
	mac := sha1mac.SumVec(c.sendMacKey[:], segs)
	reclen := 4 + plen + sha1mac.Size
	sw, vectored := c.raw.(sunrpc.SegmentWriter)
	copied := 0
	var err error
	if c.encrypt || !vectored {
		rec, ret := sized(c.sealBuf, reclen)
		c.sealBuf = ret
		rec[0] = byte(plen >> 24)
		rec[1] = byte(plen >> 16)
		rec[2] = byte(plen >> 8)
		rec[3] = byte(plen)
		if c.encrypt {
			c.send.XORKeyStream(rec[:4], rec[:4])
			pos := 4
			for _, s := range segs {
				c.send.XORKeyStream(rec[pos:pos+len(s)], s)
				pos += len(s)
			}
			copy(rec[pos:], mac[:])
			c.send.XORKeyStream(rec[pos:], rec[pos:])
		} else {
			pos := 4
			for _, s := range segs {
				pos += copy(rec[pos:], s)
			}
			copy(rec[pos:], mac[:])
			c.send.Skip(reclen)
		}
		copied = reclen
		if !sealT0.IsZero() {
			c.sealNS.Add(int64(time.Since(sealT0)))
		}
		if vectored {
			// Hand the sealed record down as a single segment: the
			// transport's staging-copy charge does not apply — the
			// fused seal pass above already was the staging.
			ws := append(c.wsegs[:0], rec)
			c.wsegs = ws
			_, _, err = sw.WriteSegments(ws)
			ws[0] = nil
		} else {
			_, err = c.raw.Write(rec)
		}
	} else {
		c.sendHdr[0] = byte(plen >> 24)
		c.sendHdr[1] = byte(plen >> 16)
		c.sendHdr[2] = byte(plen >> 8)
		c.sendHdr[3] = byte(plen)
		c.sendMac = mac
		c.send.Skip(reclen)
		if !sealT0.IsZero() {
			c.sealNS.Add(int64(time.Since(sealT0)))
		}
		ws := append(c.wsegs[:0], c.sendHdr[:])
		ws = append(ws, segs...)
		ws = append(ws, c.sendMac[:])
		c.wsegs = ws
		_, _, err = sw.WriteSegments(ws)
		for i := range ws {
			ws[i] = nil
		}
	}
	if err != nil {
		return 0, copied, err
	}
	chanStats.seals.Inc()
	chanStats.sealPlain.Add(uint64(plen))
	chanStats.sealCipher.Add(uint64(reclen))
	return plen, copied, nil
}

// MaxRecord bounds a sealed record's plaintext.
const MaxRecord = 64 << 20

// Read returns decrypted bytes, opening the next record when the
// current one is used up. A record that fits in p is decrypted
// straight into it.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.readErr != nil {
		return 0, c.readErr
	}
	for len(c.readBuf) == 0 {
		rec, direct, err := c.open(p, false)
		if err != nil {
			c.readErr = err
			return 0, err
		}
		if !direct {
			c.readBuf = rec
		} else if len(rec) > 0 {
			return len(rec), nil
		}
	}
	n := copy(p, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// ReadRecord returns the next channel record as one RPC message
// (sunrpc.RecordReader): a channel record that is exactly one
// single-fragment record-marked message — all WriteSegments and
// sunrpc.WriteRecord ever seal — is decrypted into a slice made for
// the caller and handed over without its mark. Anything else is left
// to Read.
func (c *Conn) ReadRecord() ([]byte, bool, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.readErr != nil {
		return nil, false, c.readErr
	}
	if len(c.readBuf) > 0 {
		return nil, false, nil // a Read stopped inside a record
	}
	rec, _, err := c.open(nil, true)
	if err != nil {
		c.readErr = err
		return nil, false, err
	}
	if len(rec) >= 4 {
		mark := uint32(rec[0])<<24 | uint32(rec[1])<<16 | uint32(rec[2])<<8 | uint32(rec[3])
		if mark == 0x80000000|uint32(len(rec)-4) {
			return rec[4:], true, nil
		}
	}
	c.readBuf = rec
	return nil, false, nil
}

// open opens the next record and returns its plaintext, MAC verified.
// The one pass over the payload is the decrypt, and it is also the
// move to wherever the plaintext is wanted: into p when the record
// fits there (direct is then true), into a slice of its own when owned
// is set or the record bypasses the buffer, and otherwise in place in
// the receive buffer, where it stays valid until the next call.
//
// Keystream order per record, as the sealer's: 32 bytes of MAC key,
// the 4-byte length, body and MAC.
func (c *Conn) open(p []byte, owned bool) (rec []byte, direct bool, err error) {
	if err := c.fill(4, false); err != nil {
		return nil, false, err
	}
	c.recv.KeyStreamInto(c.recvMacKey[:])
	var hdr [4]byte
	if c.encrypt {
		c.recv.XORKeyStream(hdr[:], c.rbuf[c.rpos:c.rpos+4])
	} else {
		copy(hdr[:], c.rbuf[c.rpos:])
		c.recv.Skip(4)
	}
	c.rpos += 4
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n < 0 || n > MaxRecord {
		chanStats.macDrops.Inc()
		return nil, false, ErrBadMAC // garbled length ≈ tampering
	}
	total := n + sha1mac.Size
	var src, mac []byte
	if total > recvBufMax {
		// Too big to buffer: the rest is read straight into a slice of
		// its own, grown as bytes arrive — n is only a claim until the
		// MAC says otherwise — and decrypted where it lies.
		big := append([]byte(nil), c.rbuf[c.rpos:c.rend]...)
		c.rpos, c.rend = 0, 0
		if big, err = sunrpc.ReadFullGrow(c.raw, big, total-len(big)); err != nil {
			return nil, false, err
		}
		src, mac, rec = big[:n], big[n:], big[:n]
	} else {
		if err := c.fill(total, true); err != nil {
			return nil, false, err
		}
		src, mac = c.rbuf[c.rpos:c.rpos+n], c.rbuf[c.rpos+n:c.rpos+total]
		c.rpos += total
		switch {
		case owned:
			// The record mark keeps its four bytes at the front (ReadRecord
			// slices past it): a READ reply's payload then starts 112
			// bytes into the allocation, 16-byte aligned, and the client
			// cache that borrows it is copied out of twice as fast as at
			// 108 (EXPERIMENTS.md, PR 14, warm_read).
			rec = make([]byte, n)
		case len(p) >= n:
			rec, direct = p[:n], true
		default:
			rec = src
		}
	}
	// The open work proper — decrypt + MAC verify — is timed for the
	// stage-tracing ledger; the transport reads above are wire wait.
	var openT0 time.Time
	if c.timed.Load() {
		openT0 = time.Now()
	}
	if c.encrypt {
		c.recv.XORKeyStream(rec, src)
		c.recv.XORKeyStream(mac, mac)
	} else {
		copy(rec, src) // a no-op where rec is src
		c.recv.Skip(total)
	}
	ok := sha1mac.Verify(c.recvMacKey[:], rec, mac)
	if !openT0.IsZero() {
		c.openNS.Add(int64(time.Since(openT0)))
	}
	if !ok {
		if direct {
			clear(rec) // no byte of a forged record stays in the caller's buffer
		}
		chanStats.macDrops.Inc()
		return nil, false, ErrBadMAC
	}
	chanStats.opens.Inc()
	chanStats.openPlain.Add(uint64(n))
	chanStats.openCipher.Add(uint64(total + 4))
	return rec, direct, nil
}

// fill reads from the transport until need unparsed bytes are
// buffered; need is at most recvBufMax. mid says a record is partly
// read already, so the end of input is unexpected whatever is buffered.
func (c *Conn) fill(need int, mid bool) error {
	for c.rend-c.rpos < need {
		if c.rpos == c.rend {
			c.rpos, c.rend = 0, 0
		}
		if len(c.rbuf)-c.rpos < need || c.rbufFull && len(c.rbuf) < recvBufMax {
			c.makeRoom(need)
		}
		m, err := c.raw.Read(c.rbuf[c.rend:])
		c.rend += m
		c.rbufFull = c.rend == len(c.rbuf)
		if err != nil && c.rend-c.rpos < need {
			if err == io.EOF && (mid || c.rend > c.rpos) {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// makeRoom moves the unparsed bytes to the front of a receive buffer
// that can hold need of them, doubling it first if it is too small or
// the last transport read filled it.
func (c *Conn) makeRoom(need int) {
	size := max(len(c.rbuf), recvBufMin)
	if c.rbufFull {
		size *= 2
	}
	for size < need {
		size *= 2
	}
	size = min(size, recvBufMax)
	buf := c.rbuf
	if size != len(buf) {
		buf = make([]byte, size)
	}
	c.rend = copy(buf, c.rbuf[c.rpos:c.rend])
	c.rpos, c.rbuf, c.rbufFull = 0, buf, false
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.raw.Close() }
