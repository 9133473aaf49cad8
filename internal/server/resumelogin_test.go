package server

// Resumed logins (DESIGN.md §7, §14): a session established by
// resumption carries its predecessor's user logins over through
// ProcResumeLogin, with no signature. Each test here fails when the
// check it names is taken out of the server or the resume cache
// (EXPERIMENTS.md "A resumed channel resumes its users").

import (
	"net"
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/authserv"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/secchan"
	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

var (
	otherKeyOnce sync.Once
	otherKey     *rabin.PrivateKey
)

// secondServerKey is a server key distinct from serverKeys', for a
// second file system on one master.
func secondServerKey(t testing.TB) *rabin.PrivateKey {
	t.Helper()
	otherKeyOnce.Do(func() {
		var err error
		if otherKey, err = rabin.GenerateKey(prng.NewSeeded([]byte("server-test-2")), 768); err != nil {
			t.Fatal(err)
		}
	})
	return otherKey
}

// authMaster is a master serving file systems that share one
// authserver, which knows one user, "dm", whose agent holds the key.
type authMaster struct {
	s     *Server
	auth  *authserv.Server
	db    *authserv.DB
	agent *agent.Agent
}

func newAuthMaster(t *testing.T, seed string) *authMaster {
	t.Helper()
	_, userKey := serverKeys(t)
	g := prng.NewSeeded([]byte(seed))
	m := &authMaster{s: New(g), auth: authserv.New("", g), db: authserv.NewDB("local", true)}
	m.auth.AddDB(m.db)
	if err := m.db.Put(authserv.UserRecord{User: "dm", UID: 1000, GIDs: []uint32{1000}, PublicKey: userKey.PublicKey.Bytes()}); err != nil {
		t.Fatal(err)
	}
	m.agent = agent.New("dm", g)
	m.agent.AddKey(userKey)
	return m
}

// serve registers a file system under location with the master's
// authserver.
func (m *authMaster) serve(t *testing.T, location string, key *rabin.PrivateKey) core.Path {
	t.Helper()
	path, err := m.s.Serve(ServedConfig{Location: location, Key: key, FS: vfs.New(), Auth: m.auth})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// authSession is the client end of one file-service session.
type authSession struct {
	info *secchan.Info
	rpc  *sunrpc.Client
	ai   sfsrpc.AuthInfo
	seq  uint32
}

// dial opens a session, offering ticket for resumption when non-nil.
func (m *authMaster) dial(t *testing.T, path core.Path, ticket *secchan.ResumeTicket) *authSession {
	t.Helper()
	rng := prng.NewSeeded([]byte("authdial-" + path.Location))
	tempKey, err := rabin.GenerateKey(rng, 768)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	go m.s.HandleConn(&pipeConn{c2})
	sec, info, _, err := secchan.ClientHandshakeResume(&pipeConn{c1}, secchan.ServiceFile, path, tempKey, rng, ticket)
	if err != nil {
		t.Fatal(err)
	}
	ss := &authSession{info: info, rpc: sunrpc.NewClient(sec), ai: sfsrpc.NewAuthInfo(info.Location, info.HostID, info.SessionID)}
	t.Cleanup(func() { ss.rpc.Close() })
	return ss
}

func (ss *authSession) call(t *testing.T, proc uint32, args interface{}) sfsrpc.LoginRes {
	t.Helper()
	var res sfsrpc.LoginRes
	if err := ss.rpc.Call(sfsrpc.AuthProgram, sfsrpc.Version, proc, sunrpc.NoAuth(), args, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// login runs the paper's Fig. 4 login with a's first key and returns
// the authentication number; the login must succeed.
func (ss *authSession) login(t *testing.T, a *agent.Agent) uint32 {
	t.Helper()
	ss.seq++
	msg, ok := a.Authenticate(ss.ai, ss.seq, "test", 0)
	if !ok {
		t.Fatal("agent declined to sign")
	}
	res := ss.call(t, sfsrpc.ProcLogin, sfsrpc.LoginArgs{SeqNo: ss.seq, AuthMsg: msg})
	if res.Status != sfsrpc.LoginOK {
		t.Fatalf("full login status %d", res.Status)
	}
	return res.AuthNo
}

// claimArgs builds the ProcResumeLogin arguments an honest client
// sends for authNo: a fresh sequence number and the proof under the
// session's Resumed (a zero proof when the session did not resume).
func (ss *authSession) claimArgs(authNo uint32) sfsrpc.ResumeLoginArgs {
	ss.seq++
	args := sfsrpc.ResumeLoginArgs{AuthNo: authNo, SeqNo: ss.seq}
	if ss.info.Resumed != nil {
		args.Proof = ss.info.Resumed.LoginProof(ss.ai.AuthID(), ss.seq, authNo)
	}
	return args
}

// signatures counts the Rabin signatures in a's audit trail.
func signatures(a *agent.Agent) int {
	n := 0
	for _, e := range a.Audit() {
		if e.Op == agent.AuditSign {
			n++
		}
	}
	return n
}

// resumedChain logs dm in on a full session and resumes it once,
// carrying the login over; it returns both sessions and the carried
// authentication number.
func (m *authMaster) resumedChain(t *testing.T, path core.Path) (first, second *authSession, authNo uint32) {
	t.Helper()
	first = m.dial(t, path, nil)
	no := first.login(t, m.agent)
	second = m.dial(t, path, first.info.Ticket)
	if second.info.Resumed == nil {
		t.Fatal("reconnect did not resume")
	}
	res := second.call(t, sfsrpc.ProcResumeLogin, second.claimArgs(no))
	if res.Status != sfsrpc.LoginOK {
		t.Fatalf("resumed login status %d, want LoginOK", res.Status)
	}
	return first, second, res.AuthNo
}

// TestResumeLoginTicketReusedMisses: a ticket is single-use. Offered
// again on a second connection it misses, the channel falls back to a
// full handshake, its claim is refused, and the user pays exactly one
// full login.
func TestResumeLoginTicketReusedMisses(t *testing.T) {
	m := newAuthMaster(t, "reuse")
	key, _ := serverKeys(t)
	path := m.serve(t, "reuse.example.com", key)
	first := m.dial(t, path, nil)
	no := first.login(t, m.agent)
	second := m.dial(t, path, first.info.Ticket)
	if res := second.call(t, sfsrpc.ProcResumeLogin, second.claimArgs(no)); res.Status != sfsrpc.LoginOK {
		t.Fatalf("resumed login status %d, want LoginOK", res.Status)
	}

	third := m.dial(t, path, first.info.Ticket)
	if third.info.Resumed != nil {
		t.Fatal("a spent ticket resumed a second session")
	}
	waitFor(t, "resume miss", func() bool { return m.s.met.hsResumeMiss.Load() == 1 })
	if res := third.call(t, sfsrpc.ProcResumeLogin, third.claimArgs(no)); res.Status == sfsrpc.LoginOK {
		t.Fatal("a login was carried over a missed resumption")
	}
	signs := signatures(m.agent)
	third.login(t, m.agent)
	if d := signatures(m.agent) - signs; d != 1 {
		t.Fatalf("fallback login signed %d times, want 1", d)
	}
	if got := m.s.met.resumeFallbacks.Load(); got != 1 {
		t.Fatalf("resume fallbacks %d, want 1", got)
	}
}

// TestResumeLoginForeignHostIDRefused: a login granted at one file
// system cannot be claimed at another served by the same master —
// neither by redeeming its ticket while naming the other HostID (the
// resume misses), nor by a proof over the other file system's AuthID.
func TestResumeLoginForeignHostIDRefused(t *testing.T) {
	m := newAuthMaster(t, "foreign")
	key, _ := serverKeys(t)
	pathA := m.serve(t, "a.example.com", key)
	pathB := m.serve(t, "b.example.com", secondServerKey(t))

	onA := m.dial(t, pathA, nil)
	no := onA.login(t, m.agent)
	onB := m.dial(t, pathB, onA.info.Ticket)
	if onB.info.Resumed != nil {
		t.Fatal("a ticket minted at A resumed a session at B")
	}
	if res := onB.call(t, sfsrpc.ProcResumeLogin, onB.claimArgs(no)); res.Status == sfsrpc.LoginOK {
		t.Fatal("B granted a login made at A")
	}
	if got := m.s.resume.Stats().BindingMiss; got != 1 {
		t.Fatalf("binding misses %d, want 1", got)
	}

	// A resumed session at A, claiming with a proof made for B's AuthID.
	_, second, _ := m.resumedChain(t, pathA)
	foreign := sfsrpc.NewAuthInfo(pathB.Location, pathB.HostID, second.info.SessionID)
	second.seq++
	args := sfsrpc.ResumeLoginArgs{AuthNo: 1, SeqNo: second.seq}
	args.Proof = second.info.Resumed.LoginProof(foreign.AuthID(), second.seq, 1)
	if res := second.call(t, sfsrpc.ProcResumeLogin, args); res.Status == sfsrpc.LoginOK {
		t.Fatal("a proof for B's AuthID was accepted at A")
	}
}

// TestResumeLoginReplayRefused: a ProcResumeLogin replayed inside the
// session's Fig. 4 window is refused and counted as a replay.
func TestResumeLoginReplayRefused(t *testing.T) {
	m := newAuthMaster(t, "replay")
	key, _ := serverKeys(t)
	path := m.serve(t, "replay.example.com", key)
	first := m.dial(t, path, nil)
	no := first.login(t, m.agent)
	second := m.dial(t, path, first.info.Ticket)
	args := second.claimArgs(no)
	if res := second.call(t, sfsrpc.ProcResumeLogin, args); res.Status != sfsrpc.LoginOK {
		t.Fatalf("resumed login status %d, want LoginOK", res.Status)
	}
	replays := m.s.met.seqReplays.Load()
	if res := second.call(t, sfsrpc.ProcResumeLogin, args); res.Status == sfsrpc.LoginOK {
		t.Fatal("a replayed resumed login was granted")
	}
	if d := m.s.met.seqReplays.Load() - replays; d != 1 {
		t.Fatalf("seq replays moved by %d, want 1", d)
	}
	if got := m.s.met.loginsResumed.Load(); got != 1 {
		t.Fatalf("logins resumed %d, want 1", got)
	}
}

// TestResumeLoginBadProofRefused: a forged proof, a stale one (keyed
// from the secret of a session two resumptions back) and one over the
// previous session's AuthID are all refused; the honest proof then
// still works.
func TestResumeLoginBadProofRefused(t *testing.T) {
	m := newAuthMaster(t, "proof")
	key, _ := serverKeys(t)
	path := m.serve(t, "proof.example.com", key)
	_, second, no := m.resumedChain(t, path)
	third := m.dial(t, path, second.info.Ticket)
	if third.info.Resumed == nil {
		t.Fatal("second reconnect did not resume")
	}
	bad := map[string]func(seq uint32) [20]byte{
		"forged": func(uint32) (p [20]byte) {
			copy(p[:], "not a proof at all!!")
			return p
		},
		"stale key": func(seq uint32) [20]byte {
			return second.info.Resumed.LoginProof(third.ai.AuthID(), seq, no)
		},
		"stale AuthID": func(seq uint32) [20]byte {
			return third.info.Resumed.LoginProof(second.ai.AuthID(), seq, no)
		},
	}
	for name, proof := range bad {
		third.seq++
		args := sfsrpc.ResumeLoginArgs{AuthNo: no, SeqNo: third.seq, Proof: proof(third.seq)}
		if res := third.call(t, sfsrpc.ProcResumeLogin, args); res.Status == sfsrpc.LoginOK {
			t.Fatalf("%s proof accepted", name)
		}
	}
	if got := m.s.met.resumeFallbacks.Load(); got != uint64(len(bad)) {
		t.Fatalf("resume fallbacks %d, want %d", got, len(bad))
	}
	if res := third.call(t, sfsrpc.ProcResumeLogin, third.claimArgs(no)); res.Status != sfsrpc.LoginOK {
		t.Fatalf("honest proof refused after the bad ones: status %d", res.Status)
	}
}

// TestFig4ReplayEndToEnd captures one real ProcLogin message. Replayed
// on its own session it is refused by the sequence-number window;
// sent on a second session it is refused by the AuthID check.
func TestFig4ReplayEndToEnd(t *testing.T) {
	m := newAuthMaster(t, "fig4")
	key, _ := serverKeys(t)
	path := m.serve(t, "fig4.example.com", key)
	first := m.dial(t, path, nil)
	msg, ok := m.agent.Authenticate(first.ai, 7, "test", 0)
	if !ok {
		t.Fatal("agent declined to sign")
	}
	captured := sfsrpc.LoginArgs{SeqNo: 7, AuthMsg: msg}
	if res := first.call(t, sfsrpc.ProcLogin, captured); res.Status != sfsrpc.LoginOK {
		t.Fatalf("login status %d, want LoginOK", res.Status)
	}

	if res := first.call(t, sfsrpc.ProcLogin, captured); res.Status == sfsrpc.LoginOK {
		t.Fatal("a replayed login was granted on its own session")
	}
	if got := m.s.met.seqReplays.Load(); got != 1 {
		t.Fatalf("seq replays %d, want 1", got)
	}

	second := m.dial(t, path, nil)
	authFails := m.auth.StatsSnapshot().Failures
	if res := second.call(t, sfsrpc.ProcLogin, captured); res.Status == sfsrpc.LoginOK {
		t.Fatal("a login captured on one session was granted on another")
	}
	if d := m.auth.StatsSnapshot().Failures - authFails; d != 1 {
		t.Fatalf("authserver failures moved by %d, want 1 (the AuthID check)", d)
	}
	if got := m.s.met.seqReplays.Load(); got != 1 {
		t.Fatalf("seq replays %d after the cross-session replay, want still 1", got)
	}
}
