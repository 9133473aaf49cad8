// Package client implements the SFS client (sfscd, paper §2.3, §3.3):
// the daemon that automounts remote file systems under /sfs, sets up
// secure channels, authenticates users through their agents, and
// relays file system operations.
//
// The client is stripped of any notion of administrative realm: it has
// no site-specific configuration. When a user references a
// self-certifying pathname under /sfs, the client contacts the named
// Location, verifies that the server's public key hashes to the
// pathname's HostID, and transparently mounts the file system there.
// Names that are not self-certifying are handed to the user's agent,
// which may resolve them through dynamic symbolic links and
// certification paths. Each user's agent also vets every new HostID
// against revocation certificates and blocks.
package client

import (
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/sfsro"
	"repro/internal/sfsrpc"
	"repro/internal/slab"
	"repro/internal/stats"
	"repro/internal/sunrpc"
)

// Dialer opens a transport to the server at an SFS Location.
type Dialer func(location string) (net.Conn, error)

// Errors.
var (
	ErrNoAgent   = errors.New("client: user has no agent")
	ErrNotSFS    = errors.New("client: path is not under /sfs")
	ErrNotFound  = errors.New("client: file not found")
	ErrLoopLimit = errors.New("client: too many levels of symbolic links")
	ErrClosed    = errors.New("client: closed")
)

// tempKeyBits sizes the short-lived key K_C' used for forward secrecy.
const tempKeyBits = 768

// Config tunes a client.
type Config struct {
	// Dial connects to servers; required.
	Dial Dialer
	// RNG; nil uses an environment-seeded generator.
	RNG *prng.Generator
	// TempKeyLife bounds how long one short-lived key is used
	// before regeneration (default 1 hour, as in the paper).
	TempKeyLife time.Duration
	// EnhancedCaching enables the SFS attribute/access caching
	// extensions: leases with callbacks (paper §3.3). The zero value
	// leaves them off, and the client caches no attributes, as NFS 3
	// with no attribute cache; the daemon and the paper's
	// configuration turn them on.
	EnhancedCaching bool
	// DataCacheBytes bounds each mount's lease-coherent data block
	// cache (shared by all users of the mount, served per principal).
	// Zero selects nfs.DefaultDataCacheBytes; negative disables data
	// caching.
	DataCacheBytes int64
	// NoEncryption mounts in the paper's "SFS w/o encryption"
	// configuration (Figure 5): records are MACed but travel in the
	// clear. The server must be serving with ServedConfig.NoEncryption; a
	// mismatch fails the channel's first record.
	NoEncryption bool
	// LocalUsers is the client machine's own uid→name table, used
	// by the libsfs "%name" convention: when client and server
	// agree on an ID's name, the percent prefix is dropped.
	LocalUsers map[uint32]string
	// TraceSpans > 0 traces every mount's RPCs into a ring of its own
	// (stats.TraceSpans spans, whatever the value).
	TraceSpans int
	// TraceSlow logs a one-line stage waterfall through the standard
	// logger for every traced RPC slower than this. It needs
	// TraceSpans > 0; zero disables the slow log.
	TraceSlow time.Duration
}

// mount is one automounted remote file system: read-write over a
// secure channel, or read-only over the self-certifying sfsro dialect.
type mount struct {
	path core.Path // root (Rest == "")
	base *nfs.Client
	info *secchan.Info
	root nfs.FH
	// trace holds the mount's RPC spans; nil when untraced.
	trace *stats.TraceRing
	// ro is set for read-only mounts; base/info are then nil and
	// every user shares the one verified view.
	ro *roView

	// io points at the owning Client's pipeline counters, so Files
	// opened through this mount can update them without holding a
	// Client reference.
	io *ioStats

	// sess is this mount's resumable session: the next reconnect's
	// ticket and the users' logins. prev is the session this mount
	// resumed, whose logins the users can carry over; nil after a
	// full handshake (and for read-only mounts, which have neither).
	sess, prev *session

	mu    sync.Mutex
	seq   uint32
	users map[string]*nfs.Client // per-user authenticated views
}

// nextSeq draws a fresh sequence number for the session's Fig. 4
// window.
func (m *mount) nextSeq() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return m.seq
}

// session is the client's half of one server session that a reconnect
// can resume: the ticket that resumes the channel and the logins that
// resume its users (DESIGN.md §14).
type session struct {
	ticket *secchan.ResumeTicket

	mu     sync.Mutex
	logins map[string]login
}

// login is one user's login in a session: the authentication number,
// and the AuthMsg the user's agent issued for it, which the agent
// checks before the login is carried into a resumed session.
type login struct {
	authNo uint32
	msg    []byte
}

// Client is the SFS client daemon.
type Client struct {
	cfg Config
	rng *prng.Generator

	keyMu      sync.Mutex
	tempKey    *rabin.PrivateKey
	tempKeyAge time.Time

	io ioStats // pipeline counters shared by every mount

	// chunks holds every open File's write-behind chunks, in slabs
	// outside the Go heap; Close unmaps them as they come back.
	chunks *chunkPool

	mu       sync.Mutex
	agents   map[string]*agent.Agent
	mounts   map[core.HostID]*mount
	accessed map[string]map[string]bool // user -> referenced /sfs names
	// sessions holds the latest resumable session per server, so a
	// reconnect (the mount was dropped when its connection died) skips
	// the Rabin handshake and the users' signatures when the server
	// still remembers the session.
	sessions map[core.HostID]*session
	closed   bool
}

// New creates a client.
func New(cfg Config) (*Client, error) {
	if cfg.Dial == nil {
		return nil, errors.New("client: Config.Dial is required")
	}
	if cfg.RNG == nil {
		cfg.RNG = prng.New()
	}
	if cfg.TempKeyLife == 0 {
		cfg.TempKeyLife = time.Hour
	}
	c := &Client{
		cfg:      cfg,
		rng:      cfg.RNG,
		agents:   make(map[string]*agent.Agent),
		mounts:   make(map[core.HostID]*mount),
		accessed: make(map[string]map[string]bool),
		sessions: make(map[core.HostID]*session),
		chunks:   newChunkPool(),
	}
	if err := c.rotateTempKey(); err != nil {
		return nil, err
	}
	return c, nil
}

// chunkPool is a Client's pool of write-behind chunks. The Client and
// every File's write-behind state point to it, and its finalizer closes
// the pool once none of them is left, so a Client dropped without
// Close unmaps its slabs the way the GC reclaimed heap chunks, and
// never while a File can still write. The finalizer sits on this
// object, not on the Client: the Client is part of reference cycles
// (each agent resolves names through it), and a finalizer on a cycle
// never runs.
type chunkPool struct{ *slab.Pool }

func newChunkPool() *chunkPool {
	cp := &chunkPool{slab.New(wireChunk)}
	runtime.SetFinalizer(cp, func(cp *chunkPool) {
		cp.Close() //nolint:errcheck // nobody is left to tell; the gauge went with the Client
	})
	return cp
}

// windowDepth is the depth of an open file's read-ahead and
// write-behind windows: 8 RPCs of 8 KB in flight, deep enough to cover
// the bandwidth-delay product of the paper's 10 Mbit LAN.
const windowDepth = 8

// rotateTempKey regenerates the short-lived key K_C'.
func (c *Client) rotateTempKey() error {
	k, err := rabin.GenerateKey(c.rng, tempKeyBits)
	if err != nil {
		return err
	}
	c.keyMu.Lock()
	c.tempKey = k
	c.tempKeyAge = time.Now()
	c.keyMu.Unlock()
	return nil
}

func (c *Client) currentTempKey() (*rabin.PrivateKey, error) {
	c.keyMu.Lock()
	stale := time.Since(c.tempKeyAge) > c.cfg.TempKeyLife
	k := c.tempKey
	c.keyMu.Unlock()
	if stale {
		if err := c.rotateTempKey(); err != nil {
			return nil, err
		}
		c.keyMu.Lock()
		k = c.tempKey
		c.keyMu.Unlock()
	}
	return k, nil
}

// RegisterAgent attaches a user's agent to this client and wires the
// agent's resolver to the file system, letting certification paths
// and revocation directories live on SFS itself.
func (c *Client) RegisterAgent(user string, a *agent.Agent) {
	c.mu.Lock()
	c.agents[user] = a
	if c.accessed[user] == nil {
		c.accessed[user] = make(map[string]bool)
	}
	c.mu.Unlock()
	a.SetResolver(&agentResolver{c: c, user: user})
}

// agentOf returns the user's agent.
func (c *Client) agentOf(user string) (*agent.Agent, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.agents[user]
	if !ok {
		return nil, ErrNoAgent
	}
	return a, nil
}

// agentResolver adapts the client for agent callbacks.
type agentResolver struct {
	c    *Client
	user string
}

func (r *agentResolver) ReadLink(path string) (string, error) {
	return r.c.ReadLink(r.user, path)
}

func (r *agentResolver) ReadFile(path string) ([]byte, error) {
	return r.c.ReadFile(r.user, path)
}

// getMount returns (automounting if needed) the mount for path's
// root. Mounts are shared between users: two users who name the same
// HostID are asking for the same public key, so sharing the cache is
// safe (paper §5.1).
func (c *Client) getMount(p core.Path) (*mount, error) {
	c.mu.Lock()
	m, ok := c.mounts[p.HostID]
	prev := c.sessions[p.HostID]
	closed := c.closed
	c.mu.Unlock()
	if ok {
		return m, nil
	}
	if closed {
		return nil, ErrClosed
	}
	tempKey, err := c.currentTempKey()
	if err != nil {
		return nil, err
	}
	raw, err := c.cfg.Dial(p.Location)
	if err != nil {
		return nil, fmt.Errorf("client: dialing %s: %w", p.Location, err)
	}
	// A reconnect presents the previous session's ticket; the channel
	// then comes up without public-key work when the server still
	// holds the session, and falls back to the full handshake on the
	// same connection otherwise.
	var ticket *secchan.ResumeTicket
	if prev != nil {
		ticket = prev.ticket
	}
	sec, info, _, err := secchan.ClientHandshakeResume(raw, secchan.ServiceFile, p.Root(), tempKey, c.rng, ticket)
	if err != nil && prev != nil {
		c.mu.Lock()
		if c.sessions[p.HostID] == prev {
			delete(c.sessions, p.HostID)
		}
		c.mu.Unlock()
	}
	if errors.Is(err, secchan.ErrNoSuchFS) {
		// Not served read-write here: try the read-only dialect —
		// how certification-authority replicas are reached.
		raw.Close()
		return c.getROMount(p)
	}
	if err != nil {
		raw.Close()
		return nil, err
	}
	if c.cfg.NoEncryption {
		sec.DisableEncryption()
	}
	clCfg := nfs.ClientConfig{
		UseLeases:      c.cfg.EnhancedCaching,
		AccessCache:    c.cfg.EnhancedCaching,
		DataCacheBytes: c.cfg.DataCacheBytes,
	}
	if c.cfg.TraceSpans > 0 {
		clCfg.Trace = stats.NewTraceRing(c.cfg.TraceSlow, nfs.SlowRPCLog(p.Location, log.Printf))
	}
	base := nfs.Dial(sec, clCfg)
	root, _, err := base.MountRoot()
	if err != nil {
		base.Close()
		return nil, err
	}
	m = &mount{
		path: p.Root(), base: base, info: info, root: root, trace: clCfg.Trace, io: &c.io,
		sess:  &session{ticket: info.Ticket, logins: make(map[string]login)},
		users: make(map[string]*nfs.Client),
	}
	if info.Resumed != nil {
		m.prev = prev
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		base.Close()
		return nil, ErrClosed
	}
	if exist, ok := c.mounts[p.HostID]; ok {
		// A concurrent access mounted first; its session, the one its
		// users log in to, is the one the next reconnect resumes.
		c.mu.Unlock()
		base.Close()
		return exist, nil
	}
	c.mounts[p.HostID] = m
	c.sessions[p.HostID] = m.sess
	c.mu.Unlock()
	// Drop the mount when the connection dies so the next access
	// reconnects.
	go func() {
		<-base.Done()
		c.mu.Lock()
		if c.mounts[p.HostID] == m {
			delete(c.mounts, p.HostID)
		}
		c.mu.Unlock()
	}()
	return m, nil
}

// Close closes every mount's connection and the write-behind chunk
// pool; the client then refuses to mount again, and a File still open
// gets an error for any write that needs a new chunk. The chunks such
// a File holds stay mapped until it gives them back. Calling Close
// more than once is harmless.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	mounts := c.mounts
	c.mounts = make(map[core.HostID]*mount)
	c.mu.Unlock()
	c.chunks.Close() //nolint:errcheck // tearing down; writebehind_mapped_bytes shows a slab munmap refused
	for _, m := range mounts {
		if m.ro != nil {
			m.ro.cl.Close() //nolint:errcheck // tearing down
		} else {
			m.base.Close() //nolint:errcheck // tearing down
		}
	}
}

// getROMount connects with the read-only dialect: a plain transport,
// a verified signed root, per-blob hash verification.
func (c *Client) getROMount(p core.Path) (*mount, error) {
	raw, err := c.cfg.Dial(p.Location)
	if err != nil {
		return nil, err
	}
	rocl, err := sfsro.DialClient(raw, p.Root(), 0)
	if err != nil {
		return nil, err
	}
	view := newROView(rocl)
	m := &mount{path: p.Root(), ro: view, root: view.rootFH(), io: &c.io, users: make(map[string]*nfs.Client)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		rocl.Close()
		return nil, ErrClosed
	}
	if exist, ok := c.mounts[p.HostID]; ok {
		c.mu.Unlock()
		rocl.Close()
		return exist, nil
	}
	c.mounts[p.HostID] = m
	c.mu.Unlock()
	go func() {
		<-rocl.Done()
		c.mu.Lock()
		if c.mounts[p.HostID] == m {
			delete(c.mounts, p.HostID)
		}
		c.mu.Unlock()
	}()
	return m, nil
}

// viewFor returns the user's authenticated view of a mount, logging
// the user in on first access: by carrying the user's login of the
// session this mount resumed over, when there is one and the agent
// approves, else by the paper's login protocol (§3.1.2, Figure 4).
// Read-only mounts need no authentication: everyone shares the one
// verified view.
func (c *Client) viewFor(m *mount, user string) (View, error) {
	if m.ro != nil {
		return m.ro, nil
	}
	m.mu.Lock()
	if v, ok := m.users[user]; ok {
		m.mu.Unlock()
		return v, nil
	}
	m.mu.Unlock()

	a, err := c.agentOf(user)
	if err != nil {
		return nil, err
	}
	ai := sfsrpc.NewAuthInfo(m.info.Location, m.info.HostID, m.info.SessionID)
	l, ok, err := c.resumeLogin(m, a, user, ai)
	if err == nil && !ok {
		l, err = c.fullLogin(m, a, user, ai)
	}
	if err != nil {
		return nil, err
	}
	no := l.authNo
	v := m.base.WithAuth(user, func() sunrpc.OpaqueAuth { return sunrpc.SFSAuth(no) })
	m.mu.Lock()
	defer m.mu.Unlock()
	if exist, ok := m.users[user]; ok {
		return exist, nil
	}
	m.users[user] = v
	if no != 0 {
		m.sess.mu.Lock()
		m.sess.logins[user] = l
		m.sess.mu.Unlock()
	}
	return v, nil
}

// resumeLogin carries the user's login of the session m resumed into
// m's session (DESIGN.md §14): the agent approves without signing,
// and one RPC proves the claim with a MAC under the resumed session's
// secret. ok is false when there is no login to carry, the agent
// declines, or the server refuses; the caller then logs in in full.
func (c *Client) resumeLogin(m *mount, a *agent.Agent, user string, ai sfsrpc.AuthInfo) (l login, ok bool, err error) {
	if m.prev == nil {
		return login{}, false, nil
	}
	m.prev.mu.Lock()
	l, ok = m.prev.logins[user]
	m.prev.mu.Unlock()
	if !ok {
		return login{}, false, nil
	}
	seq := m.nextSeq()
	if !a.ApproveResume(ai, seq, "sfscd:"+user, l.msg) {
		return login{}, false, nil
	}
	args := sfsrpc.ResumeLoginArgs{
		AuthNo: l.authNo, SeqNo: seq,
		Proof: m.info.Resumed.LoginProof(ai.AuthID(), seq, l.authNo),
	}
	var res sfsrpc.LoginRes
	if err := m.base.Call(sfsrpc.AuthProgram, sfsrpc.Version, sfsrpc.ProcResumeLogin, args, &res); err != nil {
		return login{}, false, err
	}
	if res.Status != sfsrpc.LoginOK {
		return login{}, false, nil
	}
	return login{authNo: res.AuthNo, msg: l.msg}, true, nil
}

// fullLogin runs the paper's login protocol (§3.1.2, Figure 4): the
// agent signs a request for this session, trying its keys in turn, and
// the server maps the key to credentials. A zero authNo means
// anonymous access: the agent declined or the server said no.
func (c *Client) fullLogin(m *mount, a *agent.Agent, user string, ai sfsrpc.AuthInfo) (login, error) {
	for attempt := 0; ; attempt++ {
		seq := m.nextSeq()
		msg, ok := a.Authenticate(ai, seq, "sfscd:"+user, attempt)
		if !ok {
			return login{}, nil // agent declines; proceed anonymously
		}
		var res sfsrpc.LoginRes
		err := m.base.Call(sfsrpc.AuthProgram, sfsrpc.Version, sfsrpc.ProcLogin,
			sfsrpc.LoginArgs{SeqNo: seq, AuthMsg: msg}, &res)
		if err != nil {
			return login{}, err
		}
		switch res.Status {
		case sfsrpc.LoginOK:
			return login{authNo: res.AuthNo, msg: msg}, nil
		case sfsrpc.LoginNo:
			return login{}, nil
		}
	}
}

// node is a resolved file: the view to talk through and the handle.
type node struct {
	view  View
	mount *mount
	fh    nfs.FH
	attr  nfs.Fattr
}

const maxWalkDepth = 24

// resolve walks an absolute path under /sfs for a user, following
// agent links, certification paths, forwarding pointers, and
// symbolic links (including secure links to other servers).
// If followLast is false, a final symbolic link is returned rather
// than followed (lstat semantics, needed by ReadLink).
func (c *Client) resolve(user, path string, followLast bool, depth int) (*node, error) {
	if depth > maxWalkDepth {
		return nil, ErrLoopLimit
	}
	if path == core.Root || path == core.Root+"/" {
		return nil, ErrNotFound // /sfs itself is synthesized, not a server
	}
	if !strings.HasPrefix(path, core.Root+"/") {
		return nil, ErrNotSFS
	}
	a, err := c.agentOf(user)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimPrefix(path, core.Root+"/")
	var first, rest string
	if i := strings.IndexByte(trimmed, '/'); i >= 0 {
		first, rest = trimmed[:i], trimmed[i+1:]
	} else {
		first = trimmed
	}
	p, err := core.ParseName(first)
	if errors.Is(err, core.ErrNotSelfCertifying) {
		// Hand the name to the agent: dynamic links and
		// certification paths (paper §2.3).
		target, err := a.LookupName(first)
		if err != nil {
			return nil, ErrNotFound
		}
		if rest != "" {
			target = strings.TrimSuffix(target, "/") + "/" + rest
		}
		return c.resolve(user, target, followLast, depth+1)
	}
	if err != nil {
		return nil, err
	}
	// Revocation / blocking / forwarding checks.
	if redirect, err := a.CheckPath(p); err != nil {
		return nil, err
	} else if redirect != nil {
		target := redirect.String()
		if rest != "" {
			target = strings.TrimSuffix(target, "/") + "/" + rest
		}
		return c.resolve(user, target, followLast, depth+1)
	}
	m, err := c.getMount(p)
	if err != nil {
		return nil, err
	}
	view, err := c.viewFor(m, user)
	if err != nil {
		return nil, err
	}
	c.noteAccess(user, p.Name())

	// Walk the remaining components.
	cur := m.root
	curAttr, err := view.GetAttr(cur)
	if err != nil {
		return nil, err
	}
	comps := splitComponents(rest)
	for i, comp := range comps {
		fh, attr, err := view.Lookup(cur, comp)
		if err != nil {
			return nil, err
		}
		if attr.Type == nfs.TypeSymlink {
			last := i == len(comps)-1
			if last && !followLast {
				return &node{view: view, mount: m, fh: fh, attr: attr}, nil
			}
			target, err := view.Readlink(fh)
			if err != nil {
				return nil, err
			}
			remain := strings.Join(comps[i+1:], "/")
			if strings.HasPrefix(target, "/") {
				// Absolute: a secure link into /sfs or out of
				// this server entirely.
				if remain != "" {
					target = strings.TrimSuffix(target, "/") + "/" + remain
				}
				return c.resolve(user, target, followLast, depth+1)
			}
			// Relative: continue from the current directory.
			rebuilt := core.Path{Location: p.Location, HostID: p.HostID,
				Rest: joinRest(comps[:i], target, remain)}
			return c.resolve(user, rebuilt.String(), followLast, depth+1)
		}
		cur, curAttr = fh, attr
	}
	return &node{view: view, mount: m, fh: cur, attr: curAttr}, nil
}

func splitComponents(rest string) []string {
	var out []string
	for _, s := range strings.Split(rest, "/") {
		if s != "" && s != "." {
			out = append(out, s)
		}
	}
	return out
}

func joinRest(prefix []string, target, remain string) string {
	parts := append(append([]string(nil), prefix...), strings.Split(target, "/")...)
	if remain != "" {
		parts = append(parts, strings.Split(remain, "/")...)
	}
	// Normalize "..": resolve lexically within the mount.
	var stack []string
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		default:
			stack = append(stack, p)
		}
	}
	return strings.Join(stack, "/")
}

func (c *Client) noteAccess(user, name string) {
	c.mu.Lock()
	if c.accessed[user] == nil {
		c.accessed[user] = make(map[string]bool)
	}
	c.accessed[user][name] = true
	c.mu.Unlock()
}

// ListSFS returns the names visible to user in a directory listing of
// /sfs: the agent's dynamic links plus the self-certifying pathnames
// this user has actually referenced. Names other users have accessed
// stay hidden, so file-name completion cannot trick a user into the
// wrong HostID (paper §2.3).
func (c *Client) ListSFS(user string) []string {
	var names []string
	if a, err := c.agentOf(user); err == nil {
		for name := range a.Links() {
			names = append(names, name)
		}
	}
	c.mu.Lock()
	for name := range c.accessed[user] {
		names = append(names, name)
	}
	c.mu.Unlock()
	return names
}
