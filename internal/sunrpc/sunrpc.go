// Package sunrpc implements the ONC Remote Procedure Call protocol
// (RFC 1831) used between every pair of SFS components.
//
// The paper's implementation describes all inter-program traffic with
// Sun RPC and XDR (§3.2): the exact bytes exchanged between programs
// are unambiguously described in XDR, and the client library is
// asynchronous. This package provides:
//
//   - RPC call/reply message framing (RFC 1831 §8),
//   - record marking for stream transports (RFC 1831 §10),
//   - an asynchronous client multiplexing concurrent calls over one
//     connection, and
//   - a server that dispatches registered (program, version) handlers.
//
// Transports are plain io.ReadWriteClosers, so the same client and
// server run over TCP, UDP (datagram framing), in-process pipes, the
// latency-shaped connections of internal/netsim, and the encrypted
// channels of internal/secchan.
package sunrpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/xdr"
)

// Message types (RFC 1831 §8).
const (
	msgCall  = 0
	msgReply = 1
)

// Reply status.
const (
	replyAccepted = 0
	replyDenied   = 1
)

// Accept status.
const (
	acceptSuccess      = 0
	acceptProgUnavail  = 1
	acceptProgMismatch = 2
	acceptProcUnavail  = 3
	acceptGarbageArgs  = 4
	acceptSystemErr    = 5
)

// RPCVersion is the ONC RPC protocol version.
const RPCVersion = 2

// Auth flavors.
const (
	// AuthNone carries no credentials.
	AuthNone = 0
	// AuthUnix carries numeric Unix credentials, used by the plain
	// NFS baseline (the paper's NFS 3 configuration).
	AuthUnix = 1
	// AuthSFS carries an SFS authentication number assigned during
	// the user-authentication protocol (paper §3.1.2). Its body is a
	// 4-byte big-endian authentication number; zero means anonymous.
	AuthSFS = 390041
)

// Errors returned by calls.
var (
	ErrProgUnavail  = errors.New("sunrpc: program unavailable")
	ErrProcUnavail  = errors.New("sunrpc: procedure unavailable")
	ErrProgMismatch = errors.New("sunrpc: program version mismatch")
	ErrGarbageArgs  = errors.New("sunrpc: garbage arguments")
	ErrSystemErr    = errors.New("sunrpc: remote system error")
	ErrAuth         = errors.New("sunrpc: authentication rejected")
	ErrClosed       = errors.New("sunrpc: connection closed")
)

// OpaqueAuth is the authenticator carried in call and reply headers.
type OpaqueAuth struct {
	Flavor uint32
	Body   []byte
}

// NoAuth is the AUTH_NONE authenticator.
func NoAuth() OpaqueAuth { return OpaqueAuth{Flavor: AuthNone, Body: []byte{}} }

// SFSAuth returns an AUTH_SFS authenticator carrying authNo, the
// authentication number handed out by the server after a successful
// user-authentication exchange. Zero is reserved for anonymous access.
func SFSAuth(authNo uint32) OpaqueAuth {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], authNo)
	return OpaqueAuth{Flavor: AuthSFS, Body: b[:]}
}

// AuthNumber extracts the authentication number from an AUTH_SFS
// authenticator, or 0 (anonymous) for any other flavor.
func AuthNumber(a OpaqueAuth) uint32 {
	if a.Flavor != AuthSFS || len(a.Body) != 4 {
		return 0
	}
	return binary.BigEndian.Uint32(a.Body)
}

// unixCred is the XDR body of an AUTH_UNIX authenticator.
type unixCred struct {
	UID  uint32
	GIDs []uint32
}

// UnixAuth returns an AUTH_UNIX authenticator for uid with the given
// group list.
func UnixAuth(uid uint32, gids []uint32) OpaqueAuth {
	if gids == nil {
		gids = []uint32{}
	}
	return OpaqueAuth{Flavor: AuthUnix, Body: xdr.MustMarshal(unixCred{UID: uid, GIDs: gids})}
}

// ParseUnixAuth extracts Unix credentials from an AUTH_UNIX
// authenticator; ok is false for other flavors or malformed bodies.
func ParseUnixAuth(a OpaqueAuth) (uid uint32, gids []uint32, ok bool) {
	if a.Flavor != AuthUnix {
		return 0, nil, false
	}
	var c unixCred
	if err := xdr.Unmarshal(a.Body, &c); err != nil {
		return 0, nil, false
	}
	return c.UID, c.GIDs, true
}

// callHeader is the fixed prefix of an RPC call after xid and mtype.
type callHeader struct {
	RPCVers uint32
	Prog    uint32
	Vers    uint32
	Proc    uint32
	Cred    OpaqueAuth
	Verf    OpaqueAuth
}

// put and get are the header's codec, written out by hand: every RPC
// pays for two of each, and the shape never changes. The bytes are the
// ones xdr's plan for the struct produces.
func (h *callHeader) put(e *xdr.Encoder) {
	e.PutUint32(h.RPCVers)
	e.PutUint32(h.Prog)
	e.PutUint32(h.Vers)
	e.PutUint32(h.Proc)
	h.Cred.put(e)
	h.Verf.put(e)
}

func (h *callHeader) get(d *xdr.Decoder) (err error) {
	for _, f := range []*uint32{&h.RPCVers, &h.Prog, &h.Vers, &h.Proc} {
		if *f, err = d.Uint32(); err != nil {
			return err
		}
	}
	if err = h.Cred.get(d); err != nil {
		return err
	}
	return h.Verf.get(d)
}

func (a OpaqueAuth) put(e *xdr.Encoder) {
	e.PutUint32(a.Flavor)
	e.PutOpaque(a.Body)
}

// get copies the body out of the record, so a handler may keep its
// credentials past the call on transports that reuse packet buffers.
func (a *OpaqueAuth) get(d *xdr.Decoder) (err error) {
	if a.Flavor, err = d.Uint32(); err != nil {
		return err
	}
	b, err := d.Opaque()
	if err != nil {
		return err
	}
	a.Body = append(make([]byte, 0, len(b)), b...)
	return nil
}

// A Record is one framed RPC message.
type record []byte

// bufPool holds framing scratch buffers for the hot wire path. A
// pooled buffer is only ever held for the duration of one Write: the
// transport must not retain the slice after Write returns, which every
// io.Writer already promises.
var bufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4+8192+256) // one NFS READ + headers
		return &b
	},
}

// maxPooledBuf caps what goes back in the pool so one giant record
// cannot pin megabytes for the rest of the process lifetime.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

// WorkTimer is implemented by transports (the secure channel) that can
// account their per-record cryptographic work in monotonic nanosecond
// accumulators: SealWorkNS is cumulative MAC+encrypt work, OpenWorkNS
// cumulative decrypt+MAC-verify work. The accumulators stay at zero
// until TimeWork, which the RPC layer calls once the connection is
// traced; it then reads an accumulator before and after moving one
// record. Writes are serialized under the connection's write lock and
// all reads happen on one goroutine, so the delta is exactly that
// record's own seal or open cost.
type WorkTimer interface {
	TimeWork()
	SealWorkNS() int64
	OpenWorkNS() int64
}

// principalOf extracts the caller identity for a traced span: the SFS
// authentication number, or the unix uid on the plain-NFS baseline.
// Only called while tracing is on (AUTH_UNIX parsing allocates).
func principalOf(a OpaqueAuth) uint32 {
	if a.Flavor == AuthSFS {
		return AuthNumber(a)
	}
	if uid, _, ok := ParseUnixAuth(a); ok {
		return uid
	}
	return 0
}

// SegmentWriter is implemented by transports that can consume a
// record as a segment list — writing vectored or sealing in place —
// instead of requiring one contiguous buffer. Segments must be
// treated as immutable and not retained after WriteSegments returns.
// n is the total bytes written; copied is how many bytes the
// transport staged through an intermediate buffer (0 for a vectored
// write, the record length for a seal-in-place pass).
type SegmentWriter interface {
	WriteSegments(segs [][]byte) (n int, copied int, err error)
}

// segScratch is the per-write scratch of WriteRecordEncoder: the
// record-marking header lives in the same heap object as the segment
// list so neither escapes to a fresh allocation per record.
type segScratch struct {
	hdr  [4]byte
	segs [][]byte
}

var segPool = sync.Pool{
	New: func() interface{} { return &segScratch{segs: make([][]byte, 0, 8)} },
}

// WriteRecordEncoder writes e's encoding as one record-marked message
// (RFC 1831 §10) to w, without flattening when w is a SegmentWriter:
// the header and e's segments — including borrowed payload slices — go
// straight to the transport. On a plain io.Writer the record is
// flattened through a pooled buffer exactly like WriteRecord.
// Wire-copy accounting (DESIGN.md §12) happens here:
// payload-class bytes are tallied once per record, every flatten or
// staging pass adds to wire_bytes_copied, and the per-record
// copies-per-payload ratio feeds the histogram.
func WriteRecordEncoder(w io.Writer, e *xdr.Encoder) error {
	n := e.Len()
	if n > 0x7fffffff {
		return errors.New("sunrpc: record too large")
	}
	payload := e.PayloadBytes()
	copied := e.CopiedBytes() // flat appends inside the encoder
	var err error
	if sw, ok := w.(SegmentWriter); ok {
		sc := segPool.Get().(*segScratch)
		binary.BigEndian.PutUint32(sc.hdr[:], uint32(n)|0x80000000)
		sc.segs = append(sc.segs[:0], sc.hdr[:])
		sc.segs = append(sc.segs, e.Segments()...)
		var staged int
		_, staged, err = sw.WriteSegments(sc.segs)
		if staged > 0 {
			copied += payload // one seal/staging pass touches every payload byte
		}
		for i := range sc.segs {
			sc.segs[i] = nil
		}
		sc.segs = sc.segs[:0]
		segPool.Put(sc)
	} else {
		bp := getBuf()
		buf := (*bp)[:0]
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(n)|0x80000000)
		buf = append(buf, hdr[:]...)
		for _, s := range e.Segments() {
			buf = append(buf, s...)
		}
		copied += payload // the flatten pass touches every payload byte
		_, err = w.Write(buf)
		*bp = buf
		putBuf(bp)
	}
	if payload > 0 {
		stats.NoteWirePayload(payload)
		if b := e.BorrowedBytes(); b > 0 {
			stats.NoteWireBorrowed(b)
		}
	}
	if copied > 0 {
		stats.NoteWireCopied(copied)
	}
	stats.ObserveWireCopies(copied, payload)
	return err
}

// WriteRecord writes one record-marked message (RFC 1831 §10) to w.
// The entire message is sent as a single fragment with the last-
// fragment bit set. The combined header+payload is staged in a pooled
// buffer, so w must not retain the slice passed to Write.
func WriteRecord(w io.Writer, payload []byte) error {
	if len(payload) > 0x7fffffff {
		return errors.New("sunrpc: record too large")
	}
	bp := getBuf()
	buf := (*bp)[:0]
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload))|0x80000000)
	// Single write where possible keeps datagram-like transports whole.
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	*bp = buf
	putBuf(bp)
	return err
}

// MaxRecord bounds the size of a reassembled record.
const MaxRecord = 64 << 20

// growStep bounds how far ahead of the bytes actually received a
// record buffer is sized. A length prefix is a claim by the peer —
// unauthenticated on a plain transport, malleable under ARC4 until the
// MAC has been checked — so a buffer grows as the body arrives, never
// to the claimed size up front.
const growStep = 256 << 10

// ReadFullGrow appends the next n bytes of r to buf. It allocates at
// most growStep, or as much again as buf already holds, beyond what has
// been read — a record up to growStep costs one exact allocation — and
// reports an end of input before n bytes as io.ErrUnexpectedEOF.
func ReadFullGrow(r io.Reader, buf []byte, n int) ([]byte, error) {
	for n > 0 {
		have := len(buf)
		step := min(n, max(have, growStep))
		if cap(buf)-have < step {
			grown := make([]byte, have, have+step)
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[have:have+step])
		buf = buf[:have+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
		n -= step
	}
	return buf, nil
}

// ReadRecord reads one record-marked message, reassembling fragments.
// The returned slice is caller-owned: exactly one allocation on the
// common single-fragment path, sized to the record. (The 4-byte header
// is read through a pooled buffer because a stack array passed to an
// io.Reader interface would escape.)
func ReadRecord(r io.Reader) ([]byte, error) {
	bp := getBuf()
	defer putBuf(bp)
	hdr := (*bp)[:4]
	var out []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return nil, err
		}
		h := binary.BigEndian.Uint32(hdr)
		n := int(h & 0x7fffffff)
		if n > MaxRecord-len(out) {
			return nil, errors.New("sunrpc: record exceeds maximum size")
		}
		var err error
		if out, err = ReadFullGrow(r, out, n); err != nil {
			return nil, err
		}
		if h&0x80000000 != 0 { // last fragment: the first one, commonly
			return out, nil
		}
	}
}

// Client is an asynchronous RPC client. Multiple goroutines may issue
// calls concurrently over the same transport; replies are matched to
// calls by xid. A Client created with NewPeer additionally dispatches
// incoming calls to a Server, making the connection a full duplex RPC
// peer — this is how the SFS server issues cache-invalidation
// callbacks to clients over the same secure channel (paper §3.3).
type Client struct {
	mu      sync.Mutex
	conn    io.ReadWriteCloser
	nextXID uint32
	pending map[uint32]chan record
	// traces maps in-flight xids to their stage clocks (nil until
	// EnableTrace). All cross-goroutine clock access — registration
	// after the call record is written, the read loop's arrival stamp,
	// Finish's claim — happens under mu, which is what makes a clock
	// single-owner at every instant.
	traces map[uint32]*stats.StageClock
	tracer atomic.Pointer[clientTracer]
	// timed is set once this connection is traced, by either side: the
	// read loop then stamps each record's arrival and open work.
	timed atomic.Bool
	wt    WorkTimer // the transport's work ledgers; nil if it keeps none
	err   error
	wmu   sync.Mutex  // serializes writes
	disp  *dispatcher // serves incoming calls; nil for a pure client
	done  chan struct{}
}

// clientTracer is a client's tracing sinks, installed by EnableTrace.
type clientTracer struct {
	ring   *stats.TraceRing
	stages *stats.StageSet
}

// EnableTrace switches on client-side span recording with a ring of
// the given capacity, returning the ring (for snapshots and the slow
// log) and the per-stage histogram set. The steady-state cost while
// installed is one atomic pointer load per call.
func (c *Client) EnableTrace(spans int) (*stats.TraceRing, *stats.StageSet) {
	t := &clientTracer{ring: stats.NewTraceRing(spans), stages: new(stats.StageSet)}
	t.ring.SetEnabled(true)
	c.tracer.Store(t)
	c.timeWork()
	return t.ring, t.stages
}

// timeWork marks the connection traced: the read loop times each
// record from here on, and a transport that can time its own seal and
// open work starts to. Nothing else in the process starts timing.
func (c *Client) timeWork() {
	c.timed.Store(true)
	if c.wt != nil {
		c.wt.TimeWork()
	}
}

// NewClient starts a client on conn and begins reading replies.
func NewClient(conn io.ReadWriteCloser) *Client { return NewPeer(conn, nil) }

// NewPeer starts a duplex peer on conn: replies are matched to local
// calls, and incoming calls (if srv is non-nil) are dispatched to srv
// with replies sent back over the same connection. Incoming calls run
// concurrently, bounded by the server's worker limit, and replies go
// out in completion order: XIDs disambiguate.
func NewPeer(conn io.ReadWriteCloser, srv *Server) *Client {
	c := newPeer(conn, srv)
	go c.readLoop()
	return c
}

func newPeer(conn io.ReadWriteCloser, srv *Server) *Client {
	c := &Client{
		conn:    conn,
		nextXID: 1,
		pending: make(map[uint32]chan record),
		done:    make(chan struct{}),
	}
	c.wt, _ = conn.(WorkTimer)
	if srv != nil {
		c.disp = newDispatcher(srv, c)
		if srv.met.Load().Trace.Enabled() {
			c.timeWork()
		}
	}
	return c
}

// Done is closed when the connection fails or is closed.
func (c *Client) Done() <-chan struct{} { return c.done }

// readLoop reads the connection until it fails. On a connection that
// serves, every record read is counted once: as a call when dispatch
// parses its header, as dropped when it does not, or when it is no
// call and answers nothing pending.
func (c *Client) readLoop() {
	in := recordIn{r: c.conn, wt: c.wt}
	in.rr, _ = c.conn.(RecordReader)
	if c.disp != nil {
		defer c.disp.close()
	}
	for {
		rec, tRead, openNS, err := in.next(c.timed.Load())
		if err != nil {
			c.fail(err) //nolint:errcheck // the connection is over either way
			return
		}
		if len(rec) >= 8 && binary.BigEndian.Uint32(rec[4:]) == msgCall {
			if c.disp != nil {
				c.disp.submit(call{rec: rec, tRead: tRead, openNS: openNS})
			}
			continue
		}
		var ch chan record
		if len(rec) >= 8 {
			xid := binary.BigEndian.Uint32(rec)
			c.mu.Lock()
			if ch = c.pending[xid]; ch != nil {
				delete(c.pending, xid)
			}
			if clk := c.traces[xid]; clk != nil {
				clk.MarkArrive(openNS)
			}
			c.mu.Unlock()
		}
		if ch != nil {
			ch <- rec
		} else if c.disp != nil {
			c.disp.srv.met.Load().Dropped.Inc()
		}
	}
}

// fail ends the connection, once: it keeps the first error, fails every
// pending call, closes Done and then the transport, and returns what
// closing the transport returned (nil on every later call).
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil
	}
	c.err = err
	close(c.done)
	for xid, ch := range c.pending {
		close(ch)
		delete(c.pending, xid)
	}
	c.traces = nil
	c.mu.Unlock()
	return c.conn.Close()
}

// Close tears down the transport and fails all pending calls.
func (c *Client) Close() error { return c.fail(ErrClosed) }

// Call performs a synchronous RPC: it marshals args, sends the call
// with the given credentials, waits for the matching reply, and
// unmarshals the result into res (which may be nil for void results).
func (c *Client) Call(prog, vers, proc uint32, cred OpaqueAuth, args, res interface{}) error {
	ch, err := c.Start(prog, vers, proc, cred, args)
	if err != nil {
		return err
	}
	return c.Finish(ch, res)
}

// Start issues an asynchronous call and returns a channel on which the
// raw reply record will arrive. Use Finish to decode it. This is the
// mechanism by which the client overlaps many outstanding NFS RPCs.
func (c *Client) Start(prog, vers, proc uint32, cred OpaqueAuth, args interface{}) (<-chan record, error) {
	var clk *stats.StageClock
	if tr := c.tracer.Load(); tr != nil && tr.ring.Enabled() {
		clk = stats.NewStageClock()
		clk.Span.Prog, clk.Span.Vers, clk.Span.Proc = prog, vers, proc
		clk.Span.Principal = principalOf(cred)
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	xid := c.nextXID
	c.nextXID++
	ch := make(chan record, 1)
	c.pending[xid] = ch
	c.mu.Unlock()
	if clk != nil {
		clk.Span.XID = xid
	}

	e := xdr.GetEncoder()
	defer xdr.PutEncoder(e)
	// Gather mode borrows payload-class args (write-behind chunks);
	// they stay immutable until WriteRecordEncoder returns below, which
	// is all the ownership rule requires.
	e.SetGather(true)
	tEnc := clk.Now()
	e.PutUint32(xid)
	e.PutUint32(msgCall)
	hdr := callHeader{RPCVers: RPCVersion, Prog: prog, Vers: vers, Proc: proc, Cred: cred}
	hdr.put(e)
	if args != nil {
		if err := e.Encode(args); err != nil {
			c.cancel(xid)
			return nil, err
		}
	}
	clk.End(stats.StageCliEncode, tEnc)
	c.wmu.Lock()
	var seal0 int64
	if clk != nil && c.wt != nil {
		seal0 = c.wt.SealWorkNS()
	}
	tW := clk.Now()
	err := WriteRecordEncoder(c.conn, e)
	var tDone time.Time
	var writeNS, sealNS int64
	if clk != nil {
		tDone = time.Now()
		writeNS = int64(tDone.Sub(tW))
		if c.wt != nil {
			sealNS = c.wt.SealWorkNS() - seal0
		}
	}
	c.wmu.Unlock()
	if err != nil {
		c.cancel(xid)
		return nil, err
	}
	if clk != nil {
		// Register the clock only now, under mu: the read loop stamps
		// arrival under the same lock, so from here on the clock is
		// handed between goroutines with the mutex providing order.
		c.mu.Lock()
		clk.Add(stats.StageCliSeal, sealNS)
		clk.Add(stats.StageCliWrite, writeNS-sealNS)
		clk.MarkWriteAt(tDone)
		clk.Span.Bytes += uint64(e.Len()) + 4
		if c.traces == nil {
			c.traces = make(map[uint32]*stats.StageClock)
		}
		c.traces[xid] = clk
		c.mu.Unlock()
	}
	return ch, nil
}

func (c *Client) cancel(xid uint32) {
	c.mu.Lock()
	delete(c.pending, xid)
	delete(c.traces, xid)
	c.mu.Unlock()
}

// Finish waits for the reply started by Start and decodes it into res.
func (c *Client) Finish(ch <-chan record, res interface{}) error {
	rec, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	clk := c.takeTrace(rec)
	if clk == nil {
		return decodeReply(rec, res)
	}
	t0 := time.Now()
	err := decodeReply(rec, res)
	sp := clk.FinishClient(int64(time.Since(t0)))
	sp.Err = sp.Err || err != nil
	sp.Bytes += uint64(len(rec)) + 4
	if tr := c.tracer.Load(); tr != nil {
		tr.stages.Record(sp)
		tr.ring.Record(*sp)
	}
	return err
}

// takeTrace claims the stage clock registered for rec's xid, if any.
// One atomic load while tracing was never enabled.
func (c *Client) takeTrace(rec record) *stats.StageClock {
	if c.tracer.Load() == nil || len(rec) < 4 {
		return nil
	}
	xid := binary.BigEndian.Uint32(rec)
	c.mu.Lock()
	clk := c.traces[xid]
	delete(c.traces, xid)
	c.mu.Unlock()
	return clk
}

func decodeReply(rec record, res interface{}) error {
	d := xdr.NewDecoder(rec)
	// Reply records are freshly allocated by ReadRecord and never
	// reused, so decoded payload fields (READ data) may alias them for
	// as long as the caller likes — including the data cache retaining
	// them as block contents.
	d.SetBorrow(true)
	if _, err := d.Uint32(); err != nil { // xid
		return err
	}
	mtype, err := d.Uint32()
	if err != nil {
		return err
	}
	if mtype != msgReply {
		return fmt.Errorf("sunrpc: unexpected message type %d", mtype)
	}
	stat, err := d.Uint32()
	if err != nil {
		return err
	}
	if stat == replyDenied {
		return ErrAuth
	}
	if stat != replyAccepted {
		return fmt.Errorf("sunrpc: bad reply status %d", stat)
	}
	var verf OpaqueAuth
	if err := verf.get(d); err != nil {
		return err
	}
	astat, err := d.Uint32()
	if err != nil {
		return err
	}
	switch astat {
	case acceptSuccess:
	case acceptProgUnavail:
		return ErrProgUnavail
	case acceptProgMismatch:
		return ErrProgMismatch
	case acceptProcUnavail:
		return ErrProcUnavail
	case acceptGarbageArgs:
		return ErrGarbageArgs
	default:
		return ErrSystemErr
	}
	if res == nil {
		return nil
	}
	derr := d.Decode(res)
	if n := d.CopiedBytes(); n > 0 {
		stats.NoteWireCopied(n)
	}
	if n := d.BorrowedBytes(); n > 0 {
		stats.NoteWireBorrowed(n)
	}
	return derr
}

// Handler processes one procedure call. args is the undecoded argument
// body; the handler returns the reply body value (marshaled by the
// server) or an error mapped to an RPC-level failure.
type Handler func(proc uint32, cred OpaqueAuth, args *xdr.Decoder) (interface{}, error)

// progVers identifies a registered program.
type progVers struct{ prog, vers uint32 }

// DefaultWorkers is the per-connection bound on calls read but not yet
// answered (DESIGN.md §7). It mirrors the paper's asynchronous RPC
// libraries: enough outstanding requests to keep the disk and wire
// busy, without unbounded goroutine growth.
const DefaultWorkers = 16

// Server dispatches RPC calls on accepted transports.
type Server struct {
	mu       sync.RWMutex
	handlers map[progVers]Handler
	workers  int // DefaultWorkers; fixed before the first connection is served
	met      atomic.Pointer[Metrics]
}

// NewServer returns an empty server with its own metrics block.
func NewServer() *Server {
	s := &Server{handlers: make(map[progVers]Handler), workers: DefaultWorkers}
	s.met.Store(NewMetrics())
	return s
}

// Metrics returns the server's metrics block.
func (s *Server) Metrics() *Metrics { return s.met.Load() }

// SetMetrics replaces the server's metrics block, typically to share
// one block across the per-connection Servers of a daemon so the
// daemon's counters aggregate every session.
func (s *Server) SetMetrics(m *Metrics) {
	if m != nil {
		s.met.Store(m)
	}
}

// Register installs h for (prog, vers), replacing any previous handler.
func (s *Server) Register(prog, vers uint32, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[progVers{prog, vers}] = h
}

// ServeConn serves calls on conn until it fails: it is a peer with no
// calls of its own, whose read loop runs on the caller's goroutine.
// Once the loop ends — the transport is closed by then — it waits for
// the calls already read to finish, and returns nil on EOF, the first
// error otherwise.
func (s *Server) ServeConn(conn io.ReadWriteCloser) error {
	c := newPeer(conn, s)
	c.readLoop()
	c.disp.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(c.err, io.EOF) {
		return nil
	}
	return c.err
}

// dispatch decodes one call record and encodes the reply into e
// (resetting it first). It reports whether e holds a reply to send;
// unparseable records are dropped. e never escapes: the caller owns it.
// clk, when non-nil, is the call's stage clock: it rides to the NFS
// handler through the decoder's context slot, the handler's vfs/fsync
// charges are subtracted out of the dispatch stage, and the span is
// recorded by the caller after the reply write. Untraced, dispatch
// reads no clock.
func (s *Server) dispatch(rec []byte, e *xdr.Encoder, clk *stats.StageClock) (bool, error) {
	e.Reset()
	// Reply payloads (READ data) are borrowed into the record; vfs.Read
	// hands out a fresh per-call snapshot, so the borrow is immutable by
	// construction (DESIGN.md §12).
	e.SetGather(true)
	m := s.met.Load()
	d := xdr.NewDecoder(rec)
	xid, err := d.Uint32()
	if err != nil {
		m.Dropped.Inc()
		return false, nil //nolint:nilerr // unparseable record: drop
	}
	mtype, err := d.Uint32()
	if err != nil || mtype != msgCall {
		m.Dropped.Inc()
		return false, nil
	}
	var hdr callHeader
	if err := hdr.get(d); err != nil {
		m.Dropped.Inc()
		return false, nil //nolint:nilerr
	}
	m.Calls.Inc()
	if clk != nil {
		clk.Span.XID, clk.Span.Prog, clk.Span.Vers, clk.Span.Proc = xid, hdr.Prog, hdr.Vers, hdr.Proc
		clk.Span.Principal = principalOf(hdr.Cred)
		clk.Span.Bytes += uint64(len(rec)) + 4
		d.SetCtx(clk)
	}
	start := clk.Now()
	ok, success, err := s.dispatchCall(xid, hdr, d, e)
	switch {
	case err != nil:
		m.Errors.Inc()
	case ok:
		m.Replies.Inc()
	}
	if clk != nil {
		clk.Span.Err = !success
		// The handler's vfs and fsync charges are nested inside the
		// dispatch interval; subtract them so the stages partition it.
		clk.Add(stats.StageDispatch,
			int64(time.Since(start))-clk.Get(stats.StageVFS)-clk.Get(stats.StageFsync))
	}
	return ok, err
}

// dispatchCall routes one decoded call header. success reports
// whether the reply (if any) carries accept status SUCCESS — a traced
// span's notion of failure.
func (s *Server) dispatchCall(xid uint32, hdr callHeader, d *xdr.Decoder, e *xdr.Encoder) (ok, success bool, err error) {
	if hdr.RPCVers != RPCVersion {
		ok, err = replyInto(e, xid, acceptSystemErr, nil)
		return ok, false, err
	}
	s.mu.RLock()
	h, found := s.handlers[progVers{hdr.Prog, hdr.Vers}]
	s.mu.RUnlock()
	if !found {
		s.mu.RLock()
		progKnown := false
		for pv := range s.handlers {
			if pv.prog == hdr.Prog {
				progKnown = true
				break
			}
		}
		s.mu.RUnlock()
		if progKnown {
			ok, err = replyInto(e, xid, acceptProgMismatch, nil)
		} else {
			ok, err = replyInto(e, xid, acceptProgUnavail, nil)
		}
		return ok, false, err
	}
	res, herr := h(hdr.Proc, hdr.Cred, d)
	if herr != nil {
		switch {
		case errors.Is(herr, ErrProcUnavail):
			ok, err = replyInto(e, xid, acceptProcUnavail, nil)
		case errors.Is(herr, ErrGarbageArgs):
			ok, err = replyInto(e, xid, acceptGarbageArgs, nil)
		default:
			ok, err = replyInto(e, xid, acceptSystemErr, nil)
		}
		return ok, false, err
	}
	ok, err = replyInto(e, xid, acceptSuccess, res)
	return ok, err == nil, err
}

// replyInto encodes an accepted reply message into e.
func replyInto(e *xdr.Encoder, xid, astat uint32, res interface{}) (bool, error) {
	e.Reset()
	e.PutUint32(xid)
	e.PutUint32(msgReply)
	e.PutUint32(replyAccepted)
	OpaqueAuth{}.put(e)
	e.PutUint32(astat)
	if astat == acceptSuccess && res != nil {
		if err := e.Encode(res); err != nil {
			return false, err
		}
	}
	if astat == acceptProgMismatch {
		e.PutUint32(0) // low
		e.PutUint32(0) // high
	}
	return true, nil
}
