package agent

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/sfsrpc"
)

var (
	agOnce sync.Once
	k1, k2 *rabin.PrivateKey
	srvK   *rabin.PrivateKey
)

func agKeys(t testing.TB) (*rabin.PrivateKey, *rabin.PrivateKey, *rabin.PrivateKey) {
	t.Helper()
	agOnce.Do(func() {
		g := prng.NewSeeded([]byte("agent-test"))
		var err error
		if k1, err = rabin.GenerateKey(g, 512); err != nil {
			t.Fatal(err)
		}
		if k2, err = rabin.GenerateKey(g, 512); err != nil {
			t.Fatal(err)
		}
		if srvK, err = rabin.GenerateKey(g, 512); err != nil {
			t.Fatal(err)
		}
	})
	return k1, k2, srvK
}

func testAI() sfsrpc.AuthInfo {
	var sid [20]byte
	sid[0] = 0x42
	return sfsrpc.NewAuthInfo("server.example.com",
		core.ComputeHostID("server.example.com", []byte("k")), sid)
}

func TestAuthenticateSignsValidRequest(t *testing.T) {
	uk, _, _ := agKeys(t)
	a := New("dm", prng.NewSeeded([]byte("a1")))
	a.AddKey(uk)
	ai := testAI()
	raw, ok := a.Authenticate(ai, 5, "console", 0)
	if !ok {
		t.Fatal("agent declined with a key loaded")
	}
	msg, err := sfsrpc.ParseAuthMsg(raw)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := msg.Verify(ai, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(&uk.PublicKey) {
		t.Fatal("signed with wrong key")
	}
	if msg.Req.AuthPath != "console" {
		t.Fatal("audit path not carried")
	}
}

func TestAuthenticateTriesKeysInOrder(t *testing.T) {
	ka, kb, _ := agKeys(t)
	a := New("dm", prng.NewSeeded([]byte("a2")))
	a.AddKey(ka)
	a.AddKey(kb)
	ai := testAI()
	raw0, ok := a.Authenticate(ai, 1, "", 0)
	if !ok {
		t.Fatal("attempt 0 declined")
	}
	m0, _ := sfsrpc.ParseAuthMsg(raw0)
	p0, _ := rabin.ParsePublicKey(m0.UserKey)
	if !p0.Equal(&ka.PublicKey) {
		t.Fatal("attempt 0 used wrong key")
	}
	raw1, ok := a.Authenticate(ai, 2, "", 1)
	if !ok {
		t.Fatal("attempt 1 declined")
	}
	m1, _ := sfsrpc.ParseAuthMsg(raw1)
	p1, _ := rabin.ParsePublicKey(m1.UserKey)
	if !p1.Equal(&kb.PublicKey) {
		t.Fatal("attempt 1 used wrong key")
	}
	// Out of keys: decline (anonymous access follows).
	if _, ok := a.Authenticate(ai, 3, "", 2); ok {
		t.Fatal("agent did not decline after exhausting keys")
	}
}

func TestAuthenticateWithoutKeysDeclines(t *testing.T) {
	a := New("dm", prng.NewSeeded([]byte("a3")))
	if _, ok := a.Authenticate(testAI(), 1, "", 0); ok {
		t.Fatal("keyless agent signed something")
	}
}

func TestAuditTrail(t *testing.T) {
	uk, _, _ := agKeys(t)
	a := New("dm", prng.NewSeeded([]byte("a4")))
	a.AddKey(uk)
	ai := testAI()
	a.Authenticate(ai, 1, "via:ssh-proxy", 0)
	a.Authenticate(ai, 2, "console", 0)
	audit := a.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit has %d entries", len(audit))
	}
	if audit[0].AuthPath != "via:ssh-proxy" || audit[0].SeqNo != 1 {
		t.Fatalf("audit[0] = %+v", audit[0])
	}
	if audit[1].Location != "server.example.com" {
		t.Fatalf("audit[1] = %+v", audit[1])
	}
}

// The trail is a ring of the newest auditKeep operations: a long-lived
// agent's memory must not grow with every login.
func TestAuditTrailBounded(t *testing.T) {
	uk, _, _ := agKeys(t)
	a := New("dm", prng.NewSeeded([]byte("a5")))
	a.AddKey(uk)
	ai := testAI()
	const extra = 37
	for i := 0; i < auditKeep+extra; i++ {
		if _, ok := a.Authenticate(ai, uint32(i), "", 0); !ok {
			t.Fatal("agent declined")
		}
	}
	audit := a.Audit()
	if len(audit) != auditKeep {
		t.Fatalf("audit has %d entries, want %d", len(audit), auditKeep)
	}
	for i, e := range audit {
		if want := uint32(extra + i); e.SeqNo != want {
			t.Fatalf("audit[%d].SeqNo = %d, want %d (oldest first)", i, e.SeqNo, want)
		}
	}
}

type fakeResolver struct {
	links map[string]string
	files map[string][]byte
}

func (f *fakeResolver) ReadLink(p string) (string, error) {
	if t, ok := f.links[p]; ok {
		return t, nil
	}
	return "", errors.New("no such link")
}

func (f *fakeResolver) ReadFile(p string) ([]byte, error) {
	if d, ok := f.files[p]; ok {
		return d, nil
	}
	return nil, errors.New("no such file")
}

func TestDynamicLinksAndCertPaths(t *testing.T) {
	a := New("dm", prng.NewSeeded([]byte("a5")))
	a.Symlink("mymit", "/sfs/mit.example.com:aaaa")
	target, err := a.LookupName("mymit")
	if err != nil || target != "/sfs/mit.example.com:aaaa" {
		t.Fatalf("own link: %q %v", target, err)
	}
	// Certification path consulted in order: local dir first, then
	// the CA; the first match wins.
	r := &fakeResolver{links: map[string]string{
		"/home/dm/.sfs/known_hosts/verisign": "/sfs/local-copy:1111",
		"/sfs/ca.example.com:cccc/verisign":  "/sfs/ca-copy:2222",
		"/sfs/ca.example.com:cccc/redhat":    "/sfs/redhat:3333",
	}}
	a.SetResolver(r)
	a.SetCertPaths([]string{"/home/dm/.sfs/known_hosts", "/sfs/ca.example.com:cccc"})
	target, err = a.LookupName("verisign")
	if err != nil || target != "/sfs/local-copy:1111" {
		t.Fatalf("cert path precedence: %q %v", target, err)
	}
	target, err = a.LookupName("redhat")
	if err != nil || target != "/sfs/redhat:3333" {
		t.Fatalf("fallthrough: %q %v", target, err)
	}
	if _, err := a.LookupName("unknown"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown name: %v", err)
	}
}

func TestRevocationBlocksAccess(t *testing.T) {
	_, _, sk := agKeys(t)
	g := prng.NewSeeded([]byte("rev"))
	a := New("dm", g)
	p := core.MakePath("dead.example.com", sk.PublicKey.Bytes())
	cert, err := core.NewRevocation(sk, "dead.example.com", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddRevocation(cert); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CheckPath(p); !errors.Is(err, ErrRevoked) {
		t.Fatalf("got %v, want ErrRevoked", err)
	}
}

func TestForwardingPointerRedirects(t *testing.T) {
	uk, _, sk := agKeys(t)
	g := prng.NewSeeded([]byte("fwd"))
	a := New("dm", g)
	oldPath := core.MakePath("old.example.com", sk.PublicKey.Bytes())
	newPath := core.MakePath("new.example.com", uk.PublicKey.Bytes())
	fwd, err := core.NewForward(sk, "old.example.com", newPath, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddRevocation(fwd); err != nil {
		t.Fatal(err)
	}
	old := oldPath
	old.Rest = "users/dm"
	redirect, err := a.CheckPath(old)
	if err != nil {
		t.Fatal(err)
	}
	if redirect == nil || redirect.Name() != newPath.Name() || redirect.Rest != "users/dm" {
		t.Fatalf("redirect = %+v", redirect)
	}
}

func TestRevocationOverrulesForward(t *testing.T) {
	uk, _, sk := agKeys(t)
	g := prng.NewSeeded([]byte("both"))
	a := New("dm", g)
	p := core.MakePath("h.example.com", sk.PublicKey.Bytes())
	fwd, _ := core.NewForward(sk, "h.example.com", core.MakePath("x", uk.PublicKey.Bytes()), g)
	rev, _ := core.NewRevocation(sk, "h.example.com", g)
	// Forward first, then revocation: revocation wins.
	a.AddRevocation(fwd) //nolint:errcheck
	a.AddRevocation(rev) //nolint:errcheck
	if _, err := a.CheckPath(p); !errors.Is(err, ErrRevoked) {
		t.Fatalf("got %v, want ErrRevoked", err)
	}
	// Reverse order: forward arrives after revocation, still loses.
	b := New("dm", g)
	b.AddRevocation(rev) //nolint:errcheck
	b.AddRevocation(fwd) //nolint:errcheck
	if _, err := b.CheckPath(p); !errors.Is(err, ErrRevoked) {
		t.Fatalf("reverse order: got %v, want ErrRevoked", err)
	}
}

func TestHostIDBlocking(t *testing.T) {
	_, _, sk := agKeys(t)
	a := New("dm", prng.NewSeeded([]byte("blk")))
	p := core.MakePath("sketchy.example.com", sk.PublicKey.Bytes())
	a.Block(p.HostID)
	if _, err := a.CheckPath(p); !errors.Is(err, ErrBlocked) {
		t.Fatalf("got %v, want ErrBlocked", err)
	}
	a.Unblock(p.HostID)
	if _, err := a.CheckPath(p); err != nil {
		t.Fatalf("after unblock: %v", err)
	}
	// Blocking is per-agent: another user's agent is unaffected.
	b := New("other", prng.NewSeeded([]byte("blk2")))
	if _, err := b.CheckPath(p); err != nil {
		t.Fatalf("other agent affected: %v", err)
	}
}

func TestRevocationDirectoryConsulted(t *testing.T) {
	_, _, sk := agKeys(t)
	g := prng.NewSeeded([]byte("revdir"))
	p := core.MakePath("dead.example.com", sk.PublicKey.Bytes())
	cert, err := core.NewRevocation(sk, "dead.example.com", g)
	if err != nil {
		t.Fatal(err)
	}
	r := &fakeResolver{files: map[string][]byte{
		"/sfs/verisign.example.com:vvvv/revocations/" + p.HostID.String(): cert.Marshal(),
	}}
	a := New("dm", g)
	a.SetResolver(r)
	a.SetRevocationDirs([]string{"/sfs/verisign.example.com:vvvv/revocations"})
	if _, err := a.CheckPath(p); !errors.Is(err, ErrRevoked) {
		t.Fatalf("got %v, want ErrRevoked", err)
	}
	// The certificate is now cached: works without the resolver.
	a.SetResolver(nil)
	if _, err := a.CheckPath(p); !errors.Is(err, ErrRevoked) {
		t.Fatalf("cached: got %v, want ErrRevoked", err)
	}
}

func TestForgedRevocationIgnored(t *testing.T) {
	uk, _, sk := agKeys(t)
	g := prng.NewSeeded([]byte("forged"))
	victim := core.MakePath("victim.example.com", sk.PublicKey.Bytes())
	// An attacker (uk) "revokes" the victim's location; the HostID
	// embedded in the certificate is the attacker's own, so lookup
	// by the victim's HostID must miss it — and a certificate
	// planted under the victim's HostID file name fails the id
	// match.
	forged, err := core.NewRevocation(uk, "victim.example.com", g)
	if err != nil {
		t.Fatal(err)
	}
	r := &fakeResolver{files: map[string][]byte{
		"/revs/" + victim.HostID.String(): forged.Marshal(),
	}}
	a := New("dm", g)
	a.SetResolver(r)
	a.SetRevocationDirs([]string{"/revs"})
	if _, err := a.CheckPath(victim); err != nil {
		t.Fatalf("forged revocation took effect: %v", err)
	}
}

func TestBookmarks(t *testing.T) {
	_, _, sk := agKeys(t)
	a := New("dm", prng.NewSeeded([]byte("bm")))
	p := core.MakePath("work.example.com", sk.PublicKey.Bytes())
	a.Bookmark("work", p)
	bm := a.Bookmarks()
	if bm["work"] != p.String() {
		t.Fatalf("bookmark = %q", bm["work"])
	}
}

func TestLinksCopySemantics(t *testing.T) {
	a := New("dm", prng.NewSeeded([]byte("cp")))
	a.Symlink("x", "/sfs/a:1")
	links := a.Links()
	links["x"] = "tampered"
	if a.Links()["x"] != "/sfs/a:1" {
		t.Fatal("Links() exposed internal map")
	}
	a.Unlink("x")
	if len(a.Links()) != 0 {
		t.Fatal("Unlink failed")
	}
}

// TestApproveResumeOnlyForHeldKey: the agent approves carrying a login
// only for a key it still holds, audits the approval as one, and signs
// nothing for it.
func TestApproveResumeOnlyForHeldKey(t *testing.T) {
	uk, other, _ := agKeys(t)
	a := New("dm", prng.NewSeeded([]byte("approve")))
	a.AddKey(uk)
	ai := testAI()
	prior, ok := a.Authenticate(ai, 1, "console", 0)
	if !ok {
		t.Fatal("agent declined with a key loaded")
	}
	if !a.ApproveResume(ai, 2, "console", prior) {
		t.Fatal("agent declined a login its own key made")
	}
	audit := a.Audit()
	if len(audit) != 2 || audit[0].Op != AuditSign || audit[1].Op != AuditApprove || audit[1].SeqNo != 2 {
		t.Fatalf("audit: %+v", audit)
	}

	b := New("dm", prng.NewSeeded([]byte("approve-other")))
	b.AddKey(other)
	if b.ApproveResume(ai, 3, "console", prior) {
		t.Fatal("agent approved a login made with a key it does not hold")
	}
	if b.ApproveResume(ai, 3, "console", []byte("garbage")) {
		t.Fatal("agent approved an unparsable message")
	}
	if len(b.Audit()) != 0 {
		t.Fatal("a declined approval was audited")
	}
}
