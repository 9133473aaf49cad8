// Package server implements the SFS server side: the server master
// (sfssd) that accepts connections and dispatches them by service and
// self-certifying pathname, and the read-write file server that tags
// requests with credentials and relays them to the substrate file
// system (paper §3.2, §3.3).
//
// A single server master can serve multiple file systems, each under
// its own (Location, HostID) pair, alongside their authservers. For
// each incoming connection it reads the clear-text connect request,
// answers with a revocation certificate if one is installed for the
// requested HostID, completes the key-negotiation handshake otherwise,
// and hands the resulting secure channel to the subsystem selected by
// the request: the file service, the authserver key service, or any
// registered protocol extension (such as the read-only dialect) —
// "one can add new file system protocols to SFS without changing any
// of the existing software".
package server

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/authserv"
	"repro/internal/core"
	"repro/internal/crypto/blowfish"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/sfsrpc"
	"repro/internal/stats"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// encCodec hardens NFS file handles: it adds redundancy to the file ID
// and encrypts the result with Blowfish in CBC mode under a 20-byte
// key (paper §3.3). SFS handles are public — anonymous clients see
// them — so unlike plain NFS handles they must not be guessable.
type encCodec struct {
	ciph *blowfish.Cipher
}

func newEncCodec(key []byte) (*encCodec, error) {
	c, err := blowfish.New(key)
	if err != nil {
		return nil, err
	}
	return &encCodec{ciph: c}, nil
}

// Encode produces a 16-byte handle: CBC(fileID || check) where check
// is derived from the file ID, giving decode a redundancy test.
func (c *encCodec) Encode(id vfs.FileID) nfs.FH {
	var plain [16]byte
	binary.BigEndian.PutUint64(plain[:8], uint64(id))
	h := sha1.Sum(append([]byte("fh-check"), plain[:8]...))
	copy(plain[8:], h[:8])
	ct, err := c.ciph.EncryptCBC(plain[:])
	if err != nil {
		panic("server: CBC on aligned block failed: " + err.Error())
	}
	return ct
}

// Decode inverts Encode, rejecting handles whose redundancy does not
// check — guessed or corrupted handles.
func (c *encCodec) Decode(fh nfs.FH) (vfs.FileID, error) {
	if len(fh) != 16 {
		return 0, errors.New("server: bad handle length")
	}
	plain, err := c.ciph.DecryptCBC(fh)
	if err != nil {
		return 0, err
	}
	h := sha1.Sum(append([]byte("fh-check"), plain[:8]...))
	for i := 0; i < 8; i++ {
		if plain[8+i] != h[i] {
			return 0, errors.New("server: handle redundancy check failed")
		}
	}
	return vfs.FileID(binary.BigEndian.Uint64(plain[:8])), nil
}

// ServedConfig describes one file system to serve.
type ServedConfig struct {
	// Location is the server's DNS name or address as it appears in
	// self-certifying pathnames.
	Location string
	// Key is the server's long-lived private key.
	Key *rabin.PrivateKey
	// FS is the substrate file system.
	FS *vfs.FS
	// Auth validates user-authentication requests. Nil serves the
	// file system anonymously only.
	Auth *authserv.Server
	// LeaseMS is the attribute lease granted to clients
	// (0 disables the SFS caching extensions).
	LeaseMS uint32
	// NoEncryption serves the file service in the paper's "SFS w/o
	// encryption" configuration (Figure 5): records are MACed but travel
	// in the clear. Clients must mount with client.Config.NoEncryption;
	// a mismatch fails the channel's first record.
	NoEncryption bool
	// TraceSpans > 0 enables per-RPC stage tracing into an xid-tagged
	// span ring (stats.TraceSpans spans, whatever the value).
	TraceSpans int
	// TraceSlow logs a one-line stage waterfall through the master's
	// logger for every traced RPC slower than this. It needs
	// TraceSpans > 0; zero disables the slow log.
	TraceSlow time.Duration
}

// servedFS is one registered file system.
type servedFS struct {
	cfg  ServedConfig
	path core.Path
	nfss *nfs.Server
}

// ExtensionHandler serves a non-file, non-auth service. It receives
// the raw connection right after the clear-text connect request so
// dialects that need no key negotiation (like the read-only protocol,
// whose replicas hold no private key) can run their own exchange. The
// handler owns the connection.
type ExtensionHandler func(conn net.Conn, req *secchan.ConnectRequest)

// Server is the server master.
type Server struct {
	rng *prng.Generator
	met masterMetrics

	// Negotiation pool (DESIGN.md §14): full handshakes — the ones
	// that cost a Rabin decrypt — run on hsSlots; hsInFlight counts
	// holders plus queued waiters for the admission bound. Resumed
	// handshakes bypass the pool entirely. The policy is fixed once
	// the master starts accepting connections.
	hsSlots    chan struct{}
	hsInFlight atomic.Int64
	hsWorkers  int
	hsBacklog  int
	hsTimeout  time.Duration
	resume     *secchan.ResumeCache

	logMu sync.Mutex
	logf  Logf

	mu     sync.RWMutex
	byHost map[core.HostID]*servedFS
	revs   map[core.HostID]*core.PathRevoke
	exts   map[uint32]ExtensionHandler
}

// HandshakePolicy tunes connection admission (sfssd's knobs).
type HandshakePolicy struct {
	// Workers bounds concurrent full key negotiations (the Rabin
	// decrypts). 0 selects NumCPU.
	Workers int
	// Backlog bounds connections queued for a worker beyond the pool;
	// arrivals past workers+backlog are fast-rejected with a busy
	// status. 0 selects 16×workers; negative allows no queue.
	Backlog int
	// Timeout is the per-connection negotiation deadline: a peer that
	// stalls mid-handshake is cut off and its pool slot freed. 0
	// disables the deadline.
	Timeout time.Duration
	// ResumeCacheBytes budgets the session-resumption cache. 0 selects
	// 1 MiB; negative disables resumption.
	ResumeCacheBytes int64
	// ResumeTTL bounds a cached session's lifetime. 0 selects 1 hour.
	ResumeTTL time.Duration
}

// SetHandshakePolicy replaces the admission policy. Call before the
// master starts accepting connections.
func (s *Server) SetHandshakePolicy(p HandshakePolicy) {
	if p.Workers <= 0 {
		p.Workers = runtime.NumCPU()
	}
	switch {
	case p.Backlog == 0:
		p.Backlog = 16 * p.Workers
	case p.Backlog < 0:
		p.Backlog = 0
	}
	s.hsWorkers = p.Workers
	s.hsBacklog = p.Backlog
	s.hsTimeout = p.Timeout
	s.hsSlots = make(chan struct{}, p.Workers)
	if p.ResumeCacheBytes < 0 {
		s.resume = nil
	} else {
		s.resume = secchan.NewResumeCache(p.ResumeCacheBytes, p.ResumeTTL)
	}
}

// New creates an empty server master with the default handshake
// policy (NumCPU negotiation workers, 16× backlog, no deadline,
// 1 MiB resumption cache).
func New(rng *prng.Generator) *Server {
	if rng == nil {
		rng = prng.New()
	}
	s := &Server{
		rng:    rng,
		byHost: make(map[core.HostID]*servedFS),
		revs:   make(map[core.HostID]*core.PathRevoke),
		exts:   make(map[uint32]ExtensionHandler),
	}
	s.SetHandshakePolicy(HandshakePolicy{})
	return s
}

// Serve registers a file system and returns its self-certifying
// pathname. Anyone with a domain name and a key pair can do this —
// no authority need be consulted (paper §2.1.3).
func (s *Server) Serve(cfg ServedConfig) (core.Path, error) {
	if err := core.ValidateLocation(cfg.Location); err != nil {
		return core.Path{}, err
	}
	if cfg.Key == nil || cfg.FS == nil {
		return core.Path{}, errors.New("server: config requires a key and a file system")
	}
	path := core.MakePath(cfg.Location, cfg.Key.PublicKey.Bytes())
	// The file-handle key is derived from the server's private key
	// so handles stay stable across restarts.
	fhKeyD := sha1.Sum(append([]byte("fh-key"), cfg.Key.PrivateBytes()...))
	codec, err := newEncCodec(fhKeyD[:])
	if err != nil {
		return core.Path{}, err
	}
	sfs := &servedFS{cfg: cfg, path: path}
	nfsCfg := nfs.ServerConfig{
		LeaseMS:   cfg.LeaseMS,
		Callbacks: cfg.LeaseMS > 0,
		Codec:     codec,
		Creds:     func(sunrpc.OpaqueAuth) vfs.Cred { return vfs.Anonymous },
	}
	if cfg.Auth != nil {
		nfsCfg.IDNames = cfg.Auth.NameOfID
	}
	if cfg.TraceSpans > 0 {
		nfsCfg.Trace = stats.NewTraceRing(cfg.TraceSlow, nfs.SlowRPCLog(cfg.Location, s.logConn))
	}
	sfs.nfss = nfs.NewServer(cfg.FS, nfsCfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byHost[path.HostID]; dup {
		return core.Path{}, errors.New("server: file system already served")
	}
	s.byHost[path.HostID] = sfs
	return path, nil
}

// AddRevocation installs a revocation certificate the server will
// answer connects with — an unreliable but fast way to get the word
// out about a revoked pathname (paper §2.6).
func (s *Server) AddRevocation(cert *core.PathRevoke) error {
	id, err := cert.Verify()
	if err != nil {
		return err
	}
	if !cert.IsRevocation() {
		return errors.New("server: only revocations are served at connect")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.revs[id] = cert
	return nil
}

// RegisterExtension installs a handler for an additional service
// number, e.g. the read-only dialect.
func (s *Server) RegisterExtension(service uint32, h ExtensionHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exts[service] = h
}

// ListenAndServe accepts connections until the listener closes.
func (s *Server) ListenAndServe(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.HandleConn(conn)
	}
}

// HandleConn runs the connect protocol on one raw connection and
// hands it to the selected subsystem. The connection is wrapped to
// meter bytes both ways, and a single structured log line is emitted
// at accept and at close (whichever subsystem ends up closing it).
//
// Admission control: resumption hellos are answered inline (no
// public-key work), while full handshakes must win a negotiation-pool
// slot — arrivals beyond the pool and its backlog are shed with a
// busy status, so a cold-connect storm degrades to queuing latency
// plus fast rejects instead of unbounded goroutines doing Rabin
// decrypts. A configurable deadline covers the whole negotiation so a
// stalled peer cannot pin a slot.
func (s *Server) HandleConn(rawConn net.Conn) {
	start := time.Now()
	s.met.accepts.Inc()
	s.met.active.Inc()
	peer := "?"
	if a := rawConn.RemoteAddr(); a != nil {
		peer = a.String()
	}
	dialect := "connect" // refined once the request is parsed
	cc := &countingConn{Conn: rawConn}
	cc.onClose = func(in, out uint64) {
		s.met.active.Dec()
		s.logConn("close peer=%s dialect=%s dur=%s in=%d out=%d",
			peer, dialect, durRound(time.Since(start)), in, out)
	}
	var conn net.Conn = cc
	if sw, ok := rawConn.(sunrpc.SegmentWriter); ok {
		conn = &countingSegConn{countingConn: cc, sw: sw}
	}
	s.armDeadline(conn)
	hello, err := secchan.ReadHello(conn)
	if err != nil {
		s.noteHSError(err)
		conn.Close()
		return
	}

	var req *secchan.ConnectRequest
	var sec *secchan.Conn
	var info *secchan.Info
	service := uint32(0)
	if r := hello.Resume; r != nil {
		dialect = serviceName(r.Service) + "-resume"
		s.logConn("accept peer=%s dialect=%s location=%s", peer, dialect, r.Location)
		var hostID core.HostID
		copy(hostID[:], r.HostID[:])
		s.mu.RLock()
		rev := s.revs[hostID]
		sfs := s.byHost[hostID]
		s.mu.RUnlock()
		resumable := rev == nil && sfs != nil && sfs.path.Location == r.Location &&
			(r.Service == secchan.ServiceFile || r.Service == secchan.ServiceAuth)
		if !resumable {
			// Deny without tipping state: the fallback SFS_CONNECT gets
			// the real answer (revocation certificate, nosuch, ...).
			if err := secchan.RejectResume(conn); err != nil {
				s.noteHSError(err)
				conn.Close()
				return
			}
			s.met.hsResumeMiss.Inc()
		} else {
			c, i, hit, err := secchan.AcceptResume(conn, r, s.resume, s.rng)
			if err != nil {
				s.noteHSError(err)
				s.met.hsFails.Inc()
				conn.Close()
				return
			}
			if hit {
				s.met.hsResumed.Inc()
				sec, info, service = c, i, r.Service
				s.recordHSSpan(0, time.Since(start))
			} else {
				s.met.hsResumeMiss.Inc()
			}
		}
		if sec == nil {
			// The client falls back to a full handshake on this same
			// connection.
			req, err = secchan.ReadConnect(conn)
			if err != nil {
				s.noteHSError(err)
				conn.Close()
				return
			}
		}
	} else {
		req = hello.Connect
		dialect = serviceName(req.Service)
		s.logConn("accept peer=%s dialect=%s location=%s", peer, dialect, req.Location)
	}

	if sec == nil {
		service = req.Service
		var hostID core.HostID
		copy(hostID[:], req.HostID[:])
		s.mu.RLock()
		rev := s.revs[hostID]
		sfs := s.byHost[hostID]
		ext := s.exts[req.Service]
		s.mu.RUnlock()
		if rev != nil {
			s.met.rejRevoked.Inc()
			secchan.RejectRevoked(conn, rev) //nolint:errcheck
			conn.Close()
			return
		}
		if ext != nil {
			// Protocol extensions (e.g. the read-only dialect) own the
			// connection from here; they run their own exchange.
			s.met.extConns.Inc()
			conn.SetDeadline(time.Time{}) //nolint:errcheck
			ext(conn, req)
			return
		}
		if sfs == nil || sfs.path.Location != req.Location {
			s.met.rejNoFS.Inc()
			secchan.RejectNoSuchFS(conn) //nolint:errcheck
			conn.Close()
			return
		}
		// Full key negotiation: one pool slot, deadline re-armed so
		// time spent queued is not charged against the handshake.
		queueWait, ok := s.acquireHS()
		if !ok {
			s.met.rejBusy.Inc()
			secchan.RejectBusy(conn) //nolint:errcheck
			conn.Close()
			return
		}
		s.armDeadline(conn)
		cryptoT0 := time.Now()
		sec, info, err = secchan.ServerHandshakeSession(conn, req, sfs.cfg.Key, s.rng, s.resume)
		s.releaseHS()
		if err != nil {
			s.noteHSError(err)
			s.met.hsFails.Inc()
			conn.Close()
			return
		}
		s.met.hsFull.Inc()
		s.recordHSSpan(queueWait, time.Since(cryptoT0))
	}

	conn.SetDeadline(time.Time{}) //nolint:errcheck
	s.mu.RLock()
	sfs := s.byHost[info.HostID]
	s.mu.RUnlock()
	if sfs == nil {
		sec.Close()
		return
	}
	switch service {
	case secchan.ServiceFile:
		if sfs.cfg.NoEncryption {
			sec.DisableEncryption()
		}
		s.serveFile(sec, info, sfs)
	case secchan.ServiceAuth:
		s.serveAuth(sec, sfs)
	default:
		sec.Close()
	}
}

// armDeadline (re)starts the negotiation deadline on conn.
func (s *Server) armDeadline(conn net.Conn) {
	if s.hsTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.hsTimeout)) //nolint:errcheck
	}
}

// noteHSError counts a negotiation failure caused by the handshake
// deadline expiring.
func (s *Server) noteHSError(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.met.hsTimeouts.Inc()
	}
}

// acquireHS admits a full handshake to the negotiation pool, blocking
// for a slot while the backlog allows it. It reports the time spent
// queued and whether admission succeeded; a false return means the
// caller must fast-reject.
func (s *Server) acquireHS() (time.Duration, bool) {
	if n := s.hsInFlight.Add(1); n > int64(s.hsWorkers+s.hsBacklog) {
		s.hsInFlight.Add(-1)
		return 0, false
	}
	select {
	case s.hsSlots <- struct{}{}:
		return 0, true
	default:
	}
	s.met.hsQueue.Inc()
	t0 := time.Now()
	s.hsSlots <- struct{}{}
	s.met.hsQueue.Dec()
	return time.Since(t0), true
}

// releaseHS returns a negotiation-pool slot.
func (s *Server) releaseHS() {
	<-s.hsSlots
	s.hsInFlight.Add(-1)
}

// seqWindow tracks which sequence numbers have appeared in a session,
// accepting out-of-order numbers within a reasonable window (paper
// §3.1.2 footnote 4) while rejecting replays.
type seqWindow struct {
	highest uint32
	recent  uint64 // bitmask of highest-1 .. highest-64
	started bool
}

// accept reports whether seq is fresh, and records it.
func (w *seqWindow) accept(seq uint32) bool {
	if !w.started {
		w.started = true
		w.highest = seq
		return true
	}
	switch {
	case seq == w.highest:
		return false
	case seq > w.highest:
		shift := seq - w.highest
		if shift >= 64 {
			w.recent = 0
		} else {
			w.recent = w.recent<<shift | 1<<(shift-1)
		}
		w.highest = seq
		return true
	default:
		back := w.highest - seq
		if back > 64 {
			return false // outside the window
		}
		bit := uint64(1) << (back - 1)
		if w.recent&bit != 0 {
			return false
		}
		w.recent |= bit
		return true
	}
}

// serveFile serves the read-write file protocol plus the user-
// authentication service on one secure channel.
func (s *Server) serveFile(sec *secchan.Conn, info *secchan.Info, sfs *servedFS) {
	fs := &fileSession{
		s: s, sfs: sfs, grants: info.Grants, resumed: info.Resumed,
		authInfo: sfsrpc.NewAuthInfo(info.Location, info.HostID, info.SessionID),
	}
	fs.authID = fs.authInfo.AuthID()

	// The session closes the channel when it ends, which fires the byte
	// accounting and close log even when the peer vanishes.
	sfs.nfss.ServeConnWith(sec, func(rpc *sunrpc.Server, sess *nfs.Session) {
		// Credential tagging: the server, not the client, decides
		// what a given authentication number means.
		sess.SetCreds(func(a sunrpc.OpaqueAuth) vfs.Cred {
			if g, ok := fs.grants.Get(sunrpc.AuthNumber(a)); ok {
				return vfs.Cred{UID: g.Creds.UID, GIDs: g.Creds.GIDs}
			}
			return vfs.Anonymous
		})
		rpc.Register(sfsrpc.AuthProgram, sfsrpc.Version, func(proc uint32, _ sunrpc.OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
			switch proc {
			case sfsrpc.ProcLogin:
				var la sfsrpc.LoginArgs
				if err := args.Decode(&la); err != nil {
					return nil, sunrpc.ErrGarbageArgs
				}
				return fs.login(la), nil
			case sfsrpc.ProcResumeLogin:
				var ra sfsrpc.ResumeLoginArgs
				if err := args.Decode(&ra); err != nil {
					return nil, sunrpc.ErrGarbageArgs
				}
				return fs.resumeLogin(ra), nil
			}
			return nil, sunrpc.ErrProcUnavail
		})
	})
}

// fileSession is the login state of one file-service session.
type fileSession struct {
	s        *Server
	sfs      *servedFS
	authInfo sfsrpc.AuthInfo
	authID   [sha1.Size]byte  // SHA-1 of authInfo: what logins must name
	grants   *sfsrpc.Grants   // this session's logins
	resumed  *secchan.Resumed // nil unless the session was resumed

	mu   sync.Mutex
	seqs seqWindow // Fig. 4 window, shared by full and resumed logins
}

// fresh admits a sequence number to the session's window.
func (fs *fileSession) fresh(seq uint32) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.seqs.accept(seq) {
		fs.s.met.seqReplays.Inc()
		return false
	}
	return true
}

// login runs the paper's Fig. 4 login: the authserver checks the
// agent's signature and maps the key to credentials.
func (fs *fileSession) login(la sfsrpc.LoginArgs) sfsrpc.LoginRes {
	met := &fs.s.met
	met.logins.Inc()
	auth := fs.sfs.cfg.Auth
	if auth == nil {
		met.loginFails.Inc()
		return sfsrpc.LoginRes{Status: sfsrpc.LoginNo}
	}
	res := auth.Validate(sfsrpc.ValidateArgs{AuthInfo: fs.authInfo, SeqNo: la.SeqNo, AuthMsg: la.AuthMsg})
	// The server itself re-checks what the authserver echoes: the
	// AuthID must match this session and the sequence number must be
	// fresh (paper §3.1.2).
	if !res.OK || res.AuthID != fs.authID || !fs.fresh(res.SeqNo) {
		met.loginFails.Inc()
		return sfsrpc.LoginRes{Status: sfsrpc.LoginAgain}
	}
	// Validate parsed the message already, so this cannot fail.
	msg, err := sfsrpc.ParseAuthMsg(la.AuthMsg)
	if err != nil {
		met.loginFails.Inc()
		return sfsrpc.LoginRes{Status: sfsrpc.LoginAgain}
	}
	no := fs.grants.Add(sfsrpc.Grant{UserKey: msg.UserKey, Creds: res.Creds})
	met.loginOK.Inc()
	return sfsrpc.LoginRes{Status: sfsrpc.LoginOK, AuthNo: no}
}

// resumeLogin carries a login of the resumed session into this one
// with no signature (DESIGN.md §14). It grants only when the proof
// MACs under the resumed session's secret, the sequence number is
// fresh, and the authserver still maps the grant's key to the same
// credentials; anything else sends the client to a full login.
func (fs *fileSession) resumeLogin(ra sfsrpc.ResumeLoginArgs) sfsrpc.LoginRes {
	met := &fs.s.met
	auth := fs.sfs.cfg.Auth
	if auth == nil || fs.resumed == nil {
		met.resumeFallbacks.Inc()
		return sfsrpc.LoginRes{Status: sfsrpc.LoginAgain}
	}
	proof := fs.resumed.LoginProof(fs.authID, ra.SeqNo, ra.AuthNo)
	if !hmac.Equal(proof[:], ra.Proof[:]) || !fs.fresh(ra.SeqNo) {
		met.resumeFallbacks.Inc()
		return sfsrpc.LoginRes{Status: sfsrpc.LoginAgain}
	}
	g, ok := fs.resumed.Grants.Get(ra.AuthNo)
	if !ok || !auth.Recheck(g.UserKey, g.Creds) {
		met.resumeFallbacks.Inc()
		return sfsrpc.LoginRes{Status: sfsrpc.LoginAgain}
	}
	no := fs.grants.Add(g)
	met.loginsResumed.Inc()
	return sfsrpc.LoginRes{Status: sfsrpc.LoginOK, AuthNo: no}
}

// serveAuth serves the sfskey management service (SRP password login
// and key fetch) on a secure channel.
func (s *Server) serveAuth(sec *secchan.Conn, sfs *servedFS) {
	if sfs.cfg.Auth == nil {
		sec.Close()
		return
	}
	rpc := sunrpc.NewServer()
	rpc.Register(sfsrpc.KeyProgram, sfsrpc.Version, sfs.cfg.Auth.KeyServiceHandler())
	go rpc.ServeConn(sec) //nolint:errcheck // closes sec, firing the byte accounting and close log
}

// Path returns the self-certifying pathname of a served location, for
// convenience in tests and tools.
func (s *Server) Path(location string) (core.Path, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sfs := range s.byHost {
		if sfs.path.Location == location {
			return sfs.path, nil
		}
	}
	return core.Path{}, fmt.Errorf("server: location %q not served", location)
}
