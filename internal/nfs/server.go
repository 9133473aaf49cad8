package nfs

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// HandleCodec converts between substrate file IDs and wire handles.
// The plain codec produces guessable handles (the weakness the paper
// warns about in kernel NFS); the SFS server installs an encrypting
// codec from internal/server.
type HandleCodec interface {
	Encode(id vfs.FileID) FH
	Decode(fh FH) (vfs.FileID, error)
}

// PlainCodec is the baseline codec: a 32-byte handle whose first 8
// bytes are the file ID, the rest constant — like a factory-installed
// NFS server without fsirand.
type PlainCodec struct{}

// Encode implements HandleCodec.
func (PlainCodec) Encode(id vfs.FileID) FH {
	fh := make(FH, 32)
	binary.BigEndian.PutUint64(fh, uint64(id))
	copy(fh[8:], "nfs3-plain-handle-pad...")
	return fh
}

// Decode implements HandleCodec.
func (PlainCodec) Decode(fh FH) (vfs.FileID, error) {
	if len(fh) != 32 {
		return 0, errors.New("nfs: bad handle length")
	}
	return vfs.FileID(binary.BigEndian.Uint64(fh)), nil
}

// CredFunc maps an RPC authenticator to substrate credentials.
type CredFunc func(sunrpc.OpaqueAuth) vfs.Cred

// UnixCreds is the baseline NFS credential mapping: trust AUTH_UNIX.
func UnixCreds(a sunrpc.OpaqueAuth) vfs.Cred {
	if uid, gids, ok := sunrpc.ParseUnixAuth(a); ok {
		return vfs.Cred{UID: uid, GIDs: gids}
	}
	return vfs.Anonymous
}

// ServerConfig carries the tunables distinguishing the plain NFS 3
// baseline from the SFS-enhanced server.
type ServerConfig struct {
	// LeaseMS enables the SFS attribute-lease extension when > 0.
	LeaseMS uint32
	// Callbacks enables server→client invalidations before lease
	// expiry. Meaningless without LeaseMS.
	Callbacks bool
	// Codec converts handles; nil means PlainCodec.
	Codec HandleCodec
	// Creds maps authenticators to credentials; nil means UnixCreds.
	Creds CredFunc
	// IDNames maps a numeric user/group ID to a name for the libsfs
	// mapping service (paper §3.3). Nil disables the service.
	IDNames func(uid uint32, group bool) string
	// Trace receives a span for every call served on any session; nil
	// serves untraced.
	Trace *stats.TraceRing
}

// maxTransfer bounds the data one READ returns and one WRITE may carry.
const maxTransfer = 64 << 10

// NumLeaseStripes is the number of stripes in the lease table,
// matching vfs.NumShards so a file's lease bookkeeping and its node
// lock have the same collision odds under concurrent clients.
const NumLeaseStripes = 64

// leaseStripe is one stripe of the lease table. Leases shard by
// FileID — not by session — because the write path looks leases up by
// the file being mutated: WRITE on one file must never contend with
// lease bookkeeping for another. Each stripe's mutex guards only its
// slice of the map and is never held across an RPC; callbacks fire
// from fresh goroutines after the stripe is released.
type leaseStripe struct {
	mu sync.Mutex
	m  map[vfs.FileID]map[*Session]time.Time
}

// Server serves the NFS-style protocol over a vfs.FS.
type Server struct {
	fs    *vfs.FS
	cfg   ServerConfig
	codec HandleCodec
	creds CredFunc
	maxIO uint32 // transfer bound: maxTransfer, lowered only by tests

	// mu guards sessions only. Lease state lives in the striped
	// table below so the per-file hot path never crosses a global
	// lock; the only code that touches many stripes is session
	// teardown.
	mu       sync.Mutex
	sessions map[*Session]struct{}
	leases   [NumLeaseStripes]leaseStripe

	met *ServerMetrics
}

// leaseStripeOf returns the stripe holding id's leases.
func (s *Server) leaseStripeOf(id vfs.FileID) *leaseStripe {
	return &s.leases[uint64(id)&(NumLeaseStripes-1)]
}

// lockStripe locks one lease stripe, counting contention.
func (s *Server) lockStripe(ls *leaseStripe) {
	if !ls.mu.TryLock() {
		s.met.leaseStripeContended.Inc()
		ls.mu.Lock()
	}
	s.met.leaseStripeLocks.Inc()
}

// NewServer wraps fs with the given configuration.
func NewServer(fs *vfs.FS, cfg ServerConfig) *Server {
	s := &Server{
		fs:       fs,
		cfg:      cfg,
		codec:    cfg.Codec,
		creds:    cfg.Creds,
		maxIO:    maxTransfer,
		sessions: make(map[*Session]struct{}),
		met:      newServerMetrics(cfg.Trace),
	}
	for i := range s.leases {
		s.leases[i].m = make(map[vfs.FileID]map[*Session]time.Time)
	}
	if s.codec == nil {
		s.codec = PlainCodec{}
	}
	if s.creds == nil {
		s.creds = UnixCreds
	}
	return s
}

// Session is one client connection.
type Session struct {
	srv  *Server
	peer *sunrpc.Client
	// ready is closed once peer is set. NewPeer starts reading at once,
	// so the session's first call can be granted a lease, and another
	// session can break it, before ServeConnWith has stored the peer
	// the callback goes through; invalidate waits here first.
	ready chan struct{}
	creds CredFunc // per-session override; nil uses the server's
}

// SetCreds overrides the credential mapping for this session. The SFS
// server installs a mapping from authentication numbers assigned by
// its login protocol.
func (sess *Session) SetCreds(f CredFunc) { sess.creds = f }

// ServeConn starts serving NFS calls on conn and returns the session.
// The connection is also used for invalidation callbacks, and is
// closed when the session ends.
func (s *Server) ServeConn(conn io.ReadWriteCloser) *Session {
	return s.ServeConnWith(conn, nil)
}

// ServeConnWith is ServeConn with a hook that may register additional
// RPC programs (e.g. the SFS user-authentication service) on the same
// connection before traffic starts.
func (s *Server) ServeConnWith(conn io.ReadWriteCloser, setup func(rpc *sunrpc.Server, sess *Session)) *Session {
	sess := &Session{srv: s, ready: make(chan struct{})}
	rpc := sunrpc.NewServer()
	rpc.SetMetrics(s.met.rpc) // one transport counter block across sessions
	rpc.Register(Program, Version, func(proc uint32, cred sunrpc.OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		return s.dispatch(sess, proc, cred, args)
	})
	if setup != nil {
		setup(rpc, sess)
	}
	sess.peer = sunrpc.NewPeer(conn, rpc, nil)
	close(sess.ready)
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	go func() {
		<-sess.peer.Done()
		s.dropSession(sess)
	}()
	return sess
}

func (s *Server) dropSession(sess *Session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	for i := range s.leases {
		ls := &s.leases[i]
		s.lockStripe(ls)
		for id, m := range ls.m {
			delete(m, sess)
			if len(m) == 0 {
				delete(ls.m, id)
			}
		}
		ls.mu.Unlock()
	}
}

// Close shuts down the session.
func (sess *Session) Close() error { return sess.peer.Close() }

// grantLease records that sess may cache attributes of id.
func (s *Server) grantLease(sess *Session, id vfs.FileID) uint32 {
	if s.cfg.LeaseMS == 0 {
		return 0
	}
	if s.cfg.Callbacks {
		ls := s.leaseStripeOf(id)
		s.lockStripe(ls)
		m := ls.m[id]
		if m == nil {
			m = make(map[*Session]time.Time)
			ls.m[id] = m
		}
		m[sess] = time.Now().Add(time.Duration(s.cfg.LeaseMS) * time.Millisecond)
		ls.mu.Unlock()
		s.met.leasesGranted.Inc()
	}
	return s.cfg.LeaseMS
}

// invalidate notifies every session other than actor holding a live
// lease on id. The server does not wait for acknowledgments;
// consistency does not need to be perfect, just better than NFS 3
// (paper §3.3). Targets are collected under the lease stripes of the
// ids alone and the callbacks fire from fresh goroutines with no lock
// held — a stalled client can delay its own invalidation but never a
// writer or another session (see TestStalledSessionDoesNotBlockWriters).
func (s *Server) invalidate(actor *Session, ids ...vfs.FileID) {
	if !s.cfg.Callbacks || s.cfg.LeaseMS == 0 {
		return
	}
	now := time.Now()
	type target struct {
		sess *Session
		fh   FH
	}
	var targets []target
	for _, id := range ids {
		if id == 0 { // no node: a victim that was not there
			continue
		}
		ls := s.leaseStripeOf(id)
		s.lockStripe(ls)
		m := ls.m[id]
		for sess, exp := range m {
			if sess == actor {
				continue
			}
			if exp.After(now) {
				targets = append(targets, target{sess, s.codec.Encode(id)})
			}
			delete(m, sess)
		}
		if m != nil && len(m) == 0 {
			delete(ls.m, id)
		}
		ls.mu.Unlock()
	}
	if len(targets) > 0 {
		s.met.leaseBreaks.Add(uint64(len(targets)))
	}
	for _, t := range targets {
		t := t
		go func() {
			<-t.sess.ready
			//nolint:errcheck // fire and forget by design
			t.sess.peer.Call(Program, Version, ProcInvalidate, sunrpc.NoAuth(),
				InvalidateArgs{FH: t.fh}, &StatusRes{})
		}()
	}
}

// attrFor loads attributes and grants a lease in one step.
func (s *Server) attrFor(sess *Session, id vfs.FileID) *Fattr {
	a, err := s.fs.GetAttr(id)
	if err != nil {
		return nil
	}
	fa := fattrFromVFS(a, s.grantLease(sess, id))
	return &fa
}

// dispatch wraps dispatchProc with the per-procedure counters and
// latency histogram. The per-proc "errors" counter tracks RPC-level
// failures (garbage arguments, unknown procedures); NFS status
// errors are well-formed replies and count as calls only.
func (s *Server) dispatch(sess *Session, proc uint32, auth sunrpc.OpaqueAuth, d *xdr.Decoder) (interface{}, error) {
	ps := &s.met.procs[slotFor(proc)]
	start := time.Now()
	res, err := s.dispatchProc(sess, proc, auth, d)
	ps.lat.ObserveDuration(time.Since(start))
	ps.calls.Inc()
	if err != nil {
		ps.errs.Inc()
	}
	return res, err
}

func (s *Server) dispatchProc(sess *Session, proc uint32, auth sunrpc.OpaqueAuth, d *xdr.Decoder) (interface{}, error) {
	// The RPC layer parks the call's stage clock in the decoder's
	// context slot when tracing is on; nil otherwise, and every clock
	// method is a no-op on nil. The data-path procedures below charge
	// their substrate time to the vfs stage (with the WAL's fsync wait
	// split out by the clocked write/commit variants).
	clk, _ := d.Ctx().(*stats.StageClock)
	credFn := s.creds
	if sess.creds != nil {
		credFn = sess.creds
	}
	cred := credFn(auth)
	switch proc {
	case ProcNull:
		return struct{}{}, nil
	case ProcMountRoot:
		root := s.fs.Root()
		return MountRootRes{Status: OK, Root: s.codec.Encode(root), Attr: s.attrFor(sess, root)}, nil
	case ProcGetAttr, ProcGetAttrSync:
		var a FHArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		id, err := s.codec.Decode(a.FH)
		if err != nil {
			return AttrRes{Status: ErrBadHandle}, nil
		}
		if _, err := s.fs.GetAttr(id); err != nil {
			return AttrRes{Status: statusFromErr(err)}, nil
		}
		return AttrRes{Status: OK, Attr: s.attrFor(sess, id)}, nil
	case ProcSetAttr:
		var a SetAttrArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		return s.setattr(sess, cred, a), nil
	case ProcLookup:
		var a DirOpArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		dir, err := s.codec.Decode(a.Dir)
		if err != nil {
			return LookupRes{Status: ErrBadHandle}, nil
		}
		id, _, err := s.fs.Lookup(cred, dir, a.Name)
		if err != nil {
			return LookupRes{Status: statusFromErr(err)}, nil
		}
		// The client may cache the (dir, name) → handle binding, so
		// it must hold a lease on the directory too: mutations of
		// the directory then trigger a callback that clears the
		// name-cache entry.
		s.grantLease(sess, dir)
		return LookupRes{Status: OK, FH: s.codec.Encode(id), Attr: s.attrFor(sess, id)}, nil
	case ProcAccess:
		var a AccessArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		return s.access(sess, cred, a), nil
	case ProcReadlink:
		var a FHArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		id, err := s.codec.Decode(a.FH)
		if err != nil {
			return ReadlinkRes{Status: ErrBadHandle}, nil
		}
		target, err := s.fs.Readlink(id)
		if err != nil {
			return ReadlinkRes{Status: statusFromErr(err)}, nil
		}
		return ReadlinkRes{Status: OK, Target: target}, nil
	case ProcRead:
		var a ReadArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		id, err := s.codec.Decode(a.FH)
		if err != nil {
			return ReadRes{Status: ErrBadHandle}, nil
		}
		count := a.Count
		if count > s.maxIO {
			count = s.maxIO
		}
		tv := clk.Now()
		data, eof, err := s.fs.Read(cred, id, a.Offset, count)
		clk.End(stats.StageVFS, tv)
		if err != nil {
			return ReadRes{Status: statusFromErr(err)}, nil
		}
		// data is a fresh per-call snapshot taken under the node's
		// RLock (vfs.Read), so the reply encoder may borrow it
		// end-to-end: nothing mutates it after this return, which is
		// exactly the gather path's ownership rule (DESIGN.md §12).
		return ReadRes{Status: OK, Attr: s.attrFor(sess, id), Count: uint32(len(data)), EOF: eof, Data: data}, nil
	case ProcWrite:
		// WRITE data may alias the call record: every transport hands
		// the RPC layer a fresh slice per record, which outlives this
		// handler, and fs.Write consumes the bytes synchronously — the
		// store copies them under the node lock before returning.
		d.SetBorrow(true)
		var a WriteArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		if n := d.BorrowedBytes(); n > 0 {
			stats.NoteWireBorrowed(n)
		}
		if n := d.CopiedBytes(); n > 0 {
			stats.NoteWireCopied(n)
		}
		id, err := s.codec.Decode(a.FH)
		if err != nil {
			return WriteRes{Status: ErrBadHandle}, nil
		}
		if uint32(len(a.Data)) > s.maxIO {
			return WriteRes{Status: ErrInval}, nil
		}
		// Verifier read before the write is applied: if a restart
		// slips in between, the stale verifier makes the client
		// retransmit data that actually survived — safe, where the
		// opposite order could claim lost data was kept.
		verf := s.fs.Verifier()
		// vfs = the write's substrate time minus whatever the store
		// charged to the fsync stage while we were inside it.
		tv, fsy0 := clk.Now(), clk.Get(stats.StageFsync)
		attr, err := s.fs.WriteClocked(cred, id, a.Offset, a.Data, a.Stable == FileSync, clk)
		clk.Add(stats.StageVFS, int64(clk.Now().Sub(tv))-(clk.Get(stats.StageFsync)-fsy0))
		if err != nil {
			return WriteRes{Status: statusFromErr(err)}, nil
		}
		s.met.noteWrite(id, len(a.Data), a.Stable == FileSync)
		s.invalidate(sess, id)
		fa := fattrFromVFS(attr, s.grantLease(sess, id))
		return WriteRes{Status: OK, Attr: &fa, Count: uint32(len(a.Data)), Verf: verf}, nil
	case ProcCreate:
		var a CreateArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		return s.newEntry(sess, a.Dir, func(dir vfs.FileID) (vfs.FileID, vfs.Attr, error) {
			return s.fs.Create(cred, dir, a.Name, a.Mode, a.Exclusive)
		}), nil
	case ProcMkdir:
		var a MkdirArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		return s.newEntry(sess, a.Dir, func(dir vfs.FileID) (vfs.FileID, vfs.Attr, error) {
			return s.fs.Mkdir(cred, dir, a.Name, a.Mode)
		}), nil
	case ProcSymlink:
		var a SymlinkArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		return s.newEntry(sess, a.Dir, func(dir vfs.FileID) (vfs.FileID, vfs.Attr, error) {
			return s.fs.Symlink(cred, dir, a.Name, a.Target)
		}), nil
	case ProcRemove:
		var a DirOpArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		dir, err := s.codec.Decode(a.Dir)
		if err != nil {
			return StatusRes{Status: ErrBadHandle}, nil
		}
		victim := s.victim(cred, dir, a.Name)
		if err := s.fs.Remove(cred, dir, a.Name); err != nil {
			return StatusRes{Status: statusFromErr(err)}, nil
		}
		s.invalidate(sess, dir, victim)
		s.forgetUnlinked(victim)
		return StatusRes{Status: OK, DirAttr: s.attrFor(sess, dir)}, nil
	case ProcRmdir:
		var a DirOpArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		dir, err := s.codec.Decode(a.Dir)
		if err != nil {
			return StatusRes{Status: ErrBadHandle}, nil
		}
		if err := s.fs.Rmdir(cred, dir, a.Name); err != nil {
			return StatusRes{Status: statusFromErr(err)}, nil
		}
		s.invalidate(sess, dir)
		return StatusRes{Status: OK, DirAttr: s.attrFor(sess, dir)}, nil
	case ProcRename:
		var a RenameArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		from, err := s.codec.Decode(a.FromDir)
		if err != nil {
			return StatusRes{Status: ErrBadHandle}, nil
		}
		to, err := s.codec.Decode(a.ToDir)
		if err != nil {
			return StatusRes{Status: ErrBadHandle}, nil
		}
		victim := s.victim(cred, to, a.ToName)
		if err := s.fs.Rename(cred, from, a.FromName, to, a.ToName); err != nil {
			return StatusRes{Status: statusFromErr(err)}, nil
		}
		s.invalidate(sess, from, to, victim)
		s.forgetUnlinked(victim)
		return StatusRes{Status: OK, DirAttr: s.attrFor(sess, from), DirAttr2: s.attrFor(sess, to)}, nil
	case ProcLink:
		var a LinkArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		file, err := s.codec.Decode(a.File)
		if err != nil {
			return StatusRes{Status: ErrBadHandle}, nil
		}
		dir, err := s.codec.Decode(a.Dir)
		if err != nil {
			return StatusRes{Status: ErrBadHandle}, nil
		}
		if err := s.fs.Link(cred, file, dir, a.Name); err != nil {
			return StatusRes{Status: statusFromErr(err)}, nil
		}
		s.invalidate(sess, dir, file)
		return StatusRes{Status: OK, DirAttr: s.attrFor(sess, dir)}, nil
	case ProcReadDir:
		var a ReadDirArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		dir, err := s.codec.Decode(a.Dir)
		if err != nil {
			return ReadDirRes{Status: ErrBadHandle}, nil
		}
		ents, eof, err := s.fs.ReadDir(cred, dir, a.Cookie, int(a.Count))
		if err != nil {
			return ReadDirRes{Status: statusFromErr(err)}, nil
		}
		s.grantLease(sess, dir)
		out := make([]Entry, len(ents))
		for i, e := range ents {
			out[i] = Entry{
				FileID: uint64(e.FileID),
				Name:   e.Name,
				Cookie: e.Cookie,
				FH:     s.codec.Encode(e.FileID),
				Attr:   s.attrFor(sess, e.FileID),
			}
		}
		return ReadDirRes{Status: OK, Entries: out, EOF: eof}, nil
	case ProcIDNames:
		var a IDNamesArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		if s.cfg.IDNames == nil {
			return IDNamesRes{Status: ErrNotSupp, UserNames: []string{}, GroupNames: []string{}}, nil
		}
		res := IDNamesRes{Status: OK, UserNames: make([]string, len(a.UIDs)), GroupNames: make([]string, len(a.GIDs))}
		for i, uid := range a.UIDs {
			res.UserNames[i] = s.cfg.IDNames(uid, false)
		}
		for i, gid := range a.GIDs {
			res.GroupNames[i] = s.cfg.IDNames(gid, true)
		}
		return res, nil
	case ProcFSInfo:
		return FSInfoRes{Status: OK, RTMax: s.maxIO, WTMax: s.maxIO, TimeDelta: uint64(time.Millisecond)}, nil
	case ProcCommit:
		var a FHArgs
		if err := d.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		id, err := s.codec.Decode(a.FH)
		if err != nil {
			return CommitRes{Status: ErrBadHandle}, nil
		}
		tv, fsy0 := clk.Now(), clk.Get(stats.StageFsync)
		err = s.fs.CommitClocked(id, clk)
		clk.Add(stats.StageVFS, int64(clk.Now().Sub(tv))-(clk.Get(stats.StageFsync)-fsy0))
		if err != nil {
			return CommitRes{Status: statusFromErr(err)}, nil
		}
		s.met.noteCommit(id)
		// Verifier read after the flush: a restart racing the COMMIT
		// yields a verifier mismatch and a redundant retransmission
		// instead of a silently dropped stability promise.
		return CommitRes{Status: OK, Attr: s.attrFor(sess, id), Verf: s.fs.Verifier()}, nil
	default:
		return nil, sunrpc.ErrProcUnavail
	}
}

// newEntry is the part CREATE, MKDIR and SYMLINK share once their
// arguments are decoded: make the entry in the directory dirFH names,
// call back the directory's other lease holders, reply with both nodes.
func (s *Server) newEntry(sess *Session, dirFH FH, create func(dir vfs.FileID) (vfs.FileID, vfs.Attr, error)) LookupRes {
	dir, err := s.codec.Decode(dirFH)
	if err != nil {
		return LookupRes{Status: ErrBadHandle}
	}
	id, _, err := create(dir)
	if err != nil {
		return LookupRes{Status: statusFromErr(err)}
	}
	s.invalidate(sess, dir)
	return LookupRes{Status: OK, FH: s.codec.Encode(id), Attr: s.attrFor(sess, id), DirAttr: s.attrFor(sess, dir)}
}

// victim is the node name in dir is bound to before a REMOVE or a
// RENAME over it unlinks it; 0 when unbound.
func (s *Server) victim(cred vfs.Cred, dir vfs.FileID, name string) vfs.FileID {
	id, _, err := s.fs.Lookup(cred, dir, name)
	if err != nil {
		return 0
	}
	return id
}

// forgetUnlinked is the tail REMOVE and RENAME share once victim's
// lease holders have been called back: when that was victim's last
// link nothing can change it again, so nobody will ever need calling
// back about it — and the actor's own lease, which invalidate leaves
// alone, would otherwise stay in the table as long as its session does.
func (s *Server) forgetUnlinked(victim vfs.FileID) {
	if victim == 0 { // a RENAME to a fresh name unlinks nothing
		return
	}
	if _, err := s.fs.GetAttr(victim); err != nil {
		ls := s.leaseStripeOf(victim)
		s.lockStripe(ls)
		delete(ls.m, victim)
		ls.mu.Unlock()
	}
}

// access implements the ACCESS procedure: for each requested bit,
// report whether the credential holds the corresponding permission.
func (s *Server) access(sess *Session, cred vfs.Cred, a AccessArgs) AccessRes {
	id, err := s.codec.Decode(a.FH)
	if err != nil {
		return AccessRes{Status: ErrBadHandle}
	}
	if _, err := s.fs.GetAttr(id); err != nil {
		return AccessRes{Status: statusFromErr(err)}
	}
	var granted uint32
	checks := []struct {
		bit  uint32
		mode uint32
	}{
		{AccessRead, vfs.ModeRead},
		{AccessLookup, vfs.ModeExec},
		{AccessExecute, vfs.ModeExec},
		{AccessModify, vfs.ModeWrite},
		{AccessExtend, vfs.ModeWrite},
		{AccessDelete, vfs.ModeWrite},
	}
	for _, c := range checks {
		if a.Access&c.bit == 0 {
			continue
		}
		if s.fs.Access(cred, id, c.mode) == nil {
			granted |= c.bit
		}
	}
	return AccessRes{Status: OK, Attr: s.attrFor(sess, id), Access: granted}
}

func (s *Server) setattr(sess *Session, cred vfs.Cred, a SetAttrArgs) AttrRes {
	id, err := s.codec.Decode(a.FH)
	if err != nil {
		return AttrRes{Status: ErrBadHandle}
	}
	var sa vfs.SetAttr
	sa.Mode = a.SetMode
	sa.UID = a.SetUID
	sa.GID = a.SetGID
	sa.Size = a.SetSize
	if a.SetMtime != nil {
		t := time.Unix(0, int64(*a.SetMtime))
		sa.Mtime = &t
	}
	if a.SetAtime != nil {
		t := time.Unix(0, int64(*a.SetAtime))
		sa.Atime = &t
	}
	attr, err := s.fs.SetAttrs(cred, id, sa)
	if err != nil {
		return AttrRes{Status: statusFromErr(err)}
	}
	s.invalidate(sess, id)
	fa := fattrFromVFS(attr, s.grantLease(sess, id))
	return AttrRes{Status: OK, Attr: &fa}
}
