package client_test

// A resumed channel resumes its users (DESIGN.md §14): after a
// reconnect that resumes the channel, the client carries each user's
// login over with the agent's approval and no signature, and falls
// back to the full login when the agent or the server says no.

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/authserv"
	"repro/internal/client"
	"repro/internal/crypto/rabin"
	"repro/internal/lab"
	"repro/internal/vfs"
)

// severable is a dialer whose live transports a test can cut, as a
// network drop does.
type severable struct {
	w     *lab.World
	mu    sync.Mutex
	conns []net.Conn
	dials atomic.Int64
}

func (d *severable) dial(location string) (net.Conn, error) {
	c, err := d.w.Dial(location)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	d.dials.Add(1)
	return c, nil
}

func (d *severable) sever() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
}

// resumeRig is a world whose client can be cut off, with alice
// registered and a file only alice may read.
type resumeRig struct {
	w      *lab.World
	s      *lab.Served
	cl     *client.Client
	d      *severable
	alice  *agent.Agent
	secret string
}

func newResumeRig(t *testing.T, seed string) *resumeRig {
	t.Helper()
	w, err := lab.NewWorld(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s, err := w.ServeFS("server.example.com", 30000)
	if err != nil {
		t.Fatal(err)
	}
	d := &severable{w: w}
	cl, err := w.NewClient(client.Config{Dial: d.dial, EnhancedCaching: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.NewUser(cl, s, "alice", 1000, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FS.WriteFile(rootCred(), "secret", []byte("alice only"), 0o600); err != nil {
		t.Fatal(err)
	}
	id, _, err := s.FS.Lookup(rootCred(), s.FS.Root(), "secret")
	if err != nil {
		t.Fatal(err)
	}
	uid := uint32(1000)
	if _, err := s.FS.SetAttrs(rootCred(), id, vfs.SetAttr{UID: &uid}); err != nil {
		t.Fatal(err)
	}
	r := &resumeRig{w: w, s: s, cl: cl, d: d, alice: a, secret: s.Path.String() + "/secret"}
	// The first access mounts with a full handshake and a full login.
	if _, err := cl.Stat("alice", r.secret); err != nil {
		t.Fatal(err)
	}
	return r
}

// relogin cuts the client's transport and stats until a new connection
// answers, as the benchmark's login workload does.
func (r *resumeRig) relogin(t *testing.T) {
	t.Helper()
	before := r.d.dials.Load()
	r.d.sever()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		// A Stat answered by the dying mount is not a relogin.
		if _, err := r.cl.Stat("alice", r.secret); err == nil && r.d.dials.Load() > before {
			return
		}
	}
	t.Fatal("no new connection answered")
}

// readsAsAlice reports whether alice's accesses carry alice's credentials.
func (r *resumeRig) readsAsAlice() bool {
	got, err := r.cl.ReadFile("alice", r.secret)
	return err == nil && string(got) == "alice only"
}

func auditOps(a *agent.Agent) (signed, approved int) {
	for _, e := range a.Audit() {
		switch e.Op {
		case agent.AuditSign:
			signed++
		case agent.AuditApprove:
			approved++
		}
	}
	return signed, approved
}

// TestResumedReloginSignsNothing: every resumed relogin costs the
// agent an audited approval and no signature, and the user keeps their
// credentials.
func TestResumedReloginSignsNothing(t *testing.T) {
	r := newResumeRig(t, "resume-relogin")
	if signed, approved := auditOps(r.alice); signed != 1 || approved != 0 {
		t.Fatalf("first login: %d signed, %d approved; want 1, 0", signed, approved)
	}
	const n = 3
	for i := 0; i < n; i++ {
		r.relogin(t)
	}
	if signed, approved := auditOps(r.alice); signed != 1 || approved != n {
		t.Fatalf("after %d resumed relogins: %d signed, %d approved; want 1, %d", n, signed, approved, n)
	}
	if !r.readsAsAlice() {
		t.Fatal("resumed relogin lost alice's credentials")
	}
	st := r.w.Server.StatsSnapshot()
	if st.LoginsResumed != n || st.ResumeFallbacks != 0 || st.Handshakes.Full != 1 {
		t.Fatalf("logins resumed %d, fallbacks %d, full handshakes %d; want %d, 0, 1",
			st.LoginsResumed, st.ResumeFallbacks, st.Handshakes.Full, n)
	}
	last := r.alice.Audit()[len(r.alice.Audit())-1]
	if last.Op.String() != "approved" || last.AuthPath != "sfscd:alice" {
		t.Fatalf("last audit entry %s via %q", last.Op, last.AuthPath)
	}
}

// TestResumeLoginDeletedUserFallsBack: a user deleted from the
// authserver is not carried over; the full login that follows is
// refused too, so the user is anonymous.
func TestResumeLoginDeletedUserFallsBack(t *testing.T) {
	r := newResumeRig(t, "resume-deleted")
	if err := r.s.DB.Delete("alice"); err != nil {
		t.Fatal(err)
	}
	r.relogin(t)
	if r.readsAsAlice() {
		t.Fatal("a deleted user kept their credentials across a resumption")
	}
	st := r.w.Server.StatsSnapshot()
	if st.LoginsResumed != 0 || st.ResumeFallbacks != 1 {
		t.Fatalf("logins resumed %d, fallbacks %d; want 0, 1", st.LoginsResumed, st.ResumeFallbacks)
	}
	if signed, _ := auditOps(r.alice); signed != 2 {
		t.Fatalf("%d signatures, want 2 (first login, then the refused fallback)", signed)
	}
}

// TestResumeLoginChangedRecordFallsBack: a key or UID changed in the
// authserver sends the resumed relogin to a full login, which then
// decides with the record as it is now.
func TestResumeLoginChangedRecordFallsBack(t *testing.T) {
	t.Run("key", func(t *testing.T) {
		r := newResumeRig(t, "resume-newkey")
		newKey, err := rabin.GenerateKey(r.w.RNG, lab.KeyBits)
		if err != nil {
			t.Fatal(err)
		}
		r.alice.AddKey(newKey)
		if err := r.s.DB.Put(authserv.UserRecord{User: "alice", UID: 1000, GIDs: []uint32{1000}, PublicKey: newKey.PublicKey.Bytes()}); err != nil {
			t.Fatal(err)
		}
		r.relogin(t)
		if !r.readsAsAlice() {
			t.Fatal("the full login with the new key did not restore alice")
		}
		st := r.w.Server.StatsSnapshot()
		if st.LoginsResumed != 0 || st.ResumeFallbacks != 1 {
			t.Fatalf("logins resumed %d, fallbacks %d; want 0, 1", st.LoginsResumed, st.ResumeFallbacks)
		}
		if signed, _ := auditOps(r.alice); signed != 3 {
			t.Fatalf("%d signatures, want 3 (first login; old key refused, new key accepted)", signed)
		}
	})
	t.Run("uid", func(t *testing.T) {
		r := newResumeRig(t, "resume-newuid")
		rec, ok := r.s.DB.ByName("alice")
		if !ok {
			t.Fatal("alice not registered")
		}
		rec.UID = 1001
		if err := r.s.DB.Put(*rec); err != nil {
			t.Fatal(err)
		}
		r.relogin(t)
		if r.readsAsAlice() {
			t.Fatal("a changed UID was carried over as the old one")
		}
		if st := r.w.Server.StatsSnapshot(); st.LoginsResumed != 0 || st.ResumeFallbacks != 1 {
			t.Fatalf("logins resumed %d, fallbacks %d; want 0, 1", st.LoginsResumed, st.ResumeFallbacks)
		}
	})
}

// TestResumeLoginDecliningAgentIsAnonymous: when the user's agent
// does not approve (here: the user replaced it with one that holds
// no key), the login is not carried over and the user is anonymous, as
// a declining agent leaves them on a full login.
func TestResumeLoginDecliningAgentIsAnonymous(t *testing.T) {
	r := newResumeRig(t, "resume-decline")
	keyless := agent.New("alice", nil)
	r.cl.RegisterAgent("alice", keyless)
	r.relogin(t)
	if r.readsAsAlice() {
		t.Fatal("a login was carried over without the agent's approval")
	}
	st := r.w.Server.StatsSnapshot()
	if st.LoginsResumed != 0 || st.ResumeFallbacks != 0 || st.Logins != 1 {
		t.Fatalf("logins resumed %d, fallbacks %d, full logins %d; want 0, 0, 1",
			st.LoginsResumed, st.ResumeFallbacks, st.Logins)
	}
	if len(keyless.Audit()) != 0 {
		t.Fatal("the declining agent audited an operation")
	}
}

// TestConcurrentResumedRelogins races several users' accesses against
// repeated severs of their shared mount, so the per-session login
// tables on both ends are reached from many goroutines at once (a
// -race target). Every user keeps their own credentials throughout.
func TestConcurrentResumedRelogins(t *testing.T) {
	r := newResumeRig(t, "resume-concurrent")
	users := []string{"alice", "bob", "carol"}
	for i, u := range users[1:] {
		if _, err := r.w.NewUser(r.cl, r.s, u, uint32(1001+i), ""); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, len(users))
	for _, u := range users {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors from a mount dying under the call are expected;
				// what must not happen is a success as someone else.
				if a, err := r.cl.Stat(u, r.secret); err == nil && a.UID != 1000 {
					errs <- errors.New(u + " saw the file's owner change")
					return
				}
			}
		}(u)
	}
	for i := 0; i < 5; i++ {
		r.relogin(t)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !r.readsAsAlice() {
		t.Fatal("alice lost the credentials")
	}
	if _, err := r.cl.ReadFile("bob", r.secret); err == nil {
		t.Fatal("bob read alice's file")
	}
	if st := r.w.Server.StatsSnapshot(); st.LoginsResumed == 0 {
		t.Fatal("no login was carried over")
	}
}
