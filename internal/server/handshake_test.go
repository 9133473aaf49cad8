package server

// Session-establishment tests (DESIGN.md §14): resumption through the
// master's front door, admission-control fast-rejects, the negotiation
// deadline freeing pool slots, resume-after-restart fallback, and a
// concurrent storm mixing full and resumed handshakes (a -race
// target — see tools_test.go).

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/secchan"
	"repro/internal/vfs"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// dialResume reconnects to a test server presenting a resumption
// ticket; the server decides hit or fallback.
func dialResume(t *testing.T, s *Server, path core.Path, service uint32, ticket *secchan.ResumeTicket) (*secchan.Conn, *secchan.Info) {
	t.Helper()
	c1, c2 := net.Pipe()
	go s.HandleConn(&pipeConn{c2})
	rng := prng.NewSeeded([]byte("redial-" + path.Location))
	tempKey, err := rabin.GenerateKey(rng, 768)
	if err != nil {
		t.Fatal(err)
	}
	sec, info, _, err := secchan.ClientHandshakeResume(&pipeConn{c1}, service, path, tempKey, rng, ticket)
	if err != nil {
		t.Fatal(err)
	}
	return sec, info
}

func TestResumeReconnectThroughMaster(t *testing.T) {
	key, _ := serverKeys(t)
	s := New(prng.NewSeeded([]byte("resume-master")))
	path, err := s.Serve(ServedConfig{Location: "resume.example.com", Key: key, FS: vfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	// A full handshake with both ends in-process: one Rabin decrypt per
	// side.
	rabin0 := secchan.StatsSnapshot().RabinDecrypts
	sec, info := dialServer(t, s, path, secchan.ServiceFile)
	if d := secchan.StatsSnapshot().RabinDecrypts - rabin0; d != 2 {
		t.Fatalf("full handshake performed %d Rabin decrypts, want 2", d)
	}
	if info.Ticket == nil {
		t.Fatal("full handshake minted no resumption ticket")
	}
	sec.Close()
	// The server caches the session just after its final handshake
	// write; an instant reconnect could miss (and harmlessly fall back),
	// but this test wants the hit path.
	waitFor(t, "ticket cached", func() bool { return s.resume.Stats().Entries == 1 })

	// Reconnect by resumption: zero Rabin decrypts, counted as resumed.
	rabin1 := secchan.StatsSnapshot().RabinDecrypts
	sec2, info2 := dialResume(t, s, path, secchan.ServiceFile, info.Ticket)
	defer sec2.Close()
	if d := secchan.StatsSnapshot().RabinDecrypts - rabin1; d != 0 {
		t.Fatalf("resumed reconnect performed %d Rabin decrypts, want 0", d)
	}
	if info2.SessionID == info.SessionID {
		t.Fatal("resumed session reused the old session ID")
	}
	if info2.Ticket == nil || info2.Ticket.SessionID() == info.Ticket.SessionID() {
		t.Fatal("resumed session did not mint a fresh ticket")
	}
	waitFor(t, "resumed counter", func() bool { return s.met.hsResumed.Load() == 1 })
	if got := s.met.hsFull.Load(); got != 1 {
		t.Fatalf("full handshakes %d, want 1", got)
	}
}

func TestResumeRevokedFallsBackToCertificate(t *testing.T) {
	key, _ := serverKeys(t)
	g := prng.NewSeeded([]byte("resume-rev"))
	s := New(g)
	path, err := s.Serve(ServedConfig{Location: "gone.example.com", Key: key, FS: vfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	_, info := dialServer(t, s, path, secchan.ServiceFile)
	cert, err := core.NewRevocation(key, "gone.example.com", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRevocation(cert); err != nil {
		t.Fatal(err)
	}
	// The resume is denied without explanation; the fallback connect on
	// the same connection delivers the actual revocation certificate.
	c1, c2 := net.Pipe()
	go s.HandleConn(&pipeConn{c2})
	rng := prng.NewSeeded([]byte("resume-rev-client"))
	tempKey, _ := rabin.GenerateKey(rng, 768)
	_, _, gotCert, err := secchan.ClientHandshakeResume(&pipeConn{c1}, secchan.ServiceFile, path, tempKey, rng, info.Ticket)
	if err != secchan.ErrRevoked {
		t.Fatalf("got %v, want ErrRevoked", err)
	}
	if gotCert == nil {
		t.Fatal("no revocation certificate on the fallback path")
	}
}

func TestResumeAfterRestartFallsBack(t *testing.T) {
	key, _ := serverKeys(t)
	s1 := New(prng.NewSeeded([]byte("gen-one")))
	path, err := s1.Serve(ServedConfig{Location: "reboot.example.com", Key: key, FS: vfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	_, info := dialServer(t, s1, path, secchan.ServiceFile)

	// "Restart": a fresh master with the same key has an empty
	// resumption cache, so the ticket misses and the client completes a
	// full handshake on the same connection.
	s2 := New(prng.NewSeeded([]byte("gen-two")))
	if _, err := s2.Serve(ServedConfig{Location: "reboot.example.com", Key: key, FS: vfs.New()}); err != nil {
		t.Fatal(err)
	}
	sec, info2 := dialResume(t, s2, path, secchan.ServiceFile, info.Ticket)
	defer sec.Close()
	if info2.Ticket == nil {
		t.Fatal("fallback handshake minted no new ticket")
	}
	waitFor(t, "restart counters", func() bool {
		return s2.met.hsResumeMiss.Load() == 1 && s2.met.hsFull.Load() == 1
	})
	if got := s2.met.hsResumed.Load(); got != 0 {
		t.Fatalf("resumed %d sessions against an empty cache", got)
	}
}

// stallConn lets writes through but blocks every read until released,
// so a handshake wedges at a protocol-chosen point.
type stallConn struct {
	net.Conn
	unblock chan struct{}
}

func (c *stallConn) Read(p []byte) (int, error) {
	<-c.unblock
	return 0, io.EOF
}

func TestPoolSaturationFastRejects(t *testing.T) {
	key, _ := serverKeys(t)
	s := New(prng.NewSeeded([]byte("busy")))
	s.SetHandshakePolicy(HandshakePolicy{Workers: 1, Backlog: -1})
	path, err := s.Serve(ServedConfig{Location: "busy.example.com", Key: key, FS: vfs.New()})
	if err != nil {
		t.Fatal(err)
	}

	// First connection: sends its connect request, then never reads, so
	// the server wedges mid-negotiation holding the only pool slot.
	c1, c2 := net.Pipe()
	unblock := make(chan struct{})
	defer close(unblock)
	go s.HandleConn(&pipeConn{c2})
	go func() {
		rng := prng.NewSeeded([]byte("busy-staller"))
		tempKey, _ := rabin.GenerateKey(rng, 768)
		secchan.ClientHandshake(&stallConn{Conn: c1, unblock: unblock}, secchan.ServiceFile, path, tempKey, rng) //nolint:errcheck
	}()
	waitFor(t, "slot holder", func() bool { return s.hsInFlight.Load() == 1 })

	// Second connection: pool full, no backlog — fast-rejected.
	c3, c4 := net.Pipe()
	go s.HandleConn(&pipeConn{c4})
	rng := prng.NewSeeded([]byte("busy-victim"))
	tempKey, _ := rabin.GenerateKey(rng, 768)
	_, _, _, err = secchan.ClientHandshake(&pipeConn{c3}, secchan.ServiceFile, path, tempKey, rng)
	if err != secchan.ErrServerBusy {
		t.Fatalf("got %v, want ErrServerBusy", err)
	}
	if got := s.met.rejBusy.Load(); got != 1 {
		t.Fatalf("rejects_busy %d, want 1", got)
	}
	c1.Close()
	c3.Close()
}

func TestHandshakeTimeoutFreesSlot(t *testing.T) {
	key, _ := serverKeys(t)
	s := New(prng.NewSeeded([]byte("hsto")))
	s.SetHandshakePolicy(HandshakePolicy{Workers: 1, Backlog: -1, Timeout: 100 * time.Millisecond})
	path, err := s.Serve(ServedConfig{Location: "slow.example.com", Key: key, FS: vfs.New()})
	if err != nil {
		t.Fatal(err)
	}

	// A peer that stalls mid-negotiation is cut off by the deadline,
	// counted, and its pool slot freed.
	c1, c2 := net.Pipe()
	unblock := make(chan struct{})
	defer close(unblock)
	go s.HandleConn(&pipeConn{c2})
	go func() {
		rng := prng.NewSeeded([]byte("hsto-staller"))
		tempKey, _ := rabin.GenerateKey(rng, 768)
		secchan.ClientHandshake(&stallConn{Conn: c1, unblock: unblock}, secchan.ServiceFile, path, tempKey, rng) //nolint:errcheck
	}()
	waitFor(t, "handshake timeout", func() bool { return s.met.hsTimeouts.Load() >= 1 })
	waitFor(t, "slot release", func() bool { return s.hsInFlight.Load() == 0 })

	// With the slot back, a well-behaved client negotiates fine.
	sec, _ := dialServer(t, s, path, secchan.ServiceFile)
	sec.Close()
	waitFor(t, "full handshake after timeout", func() bool { return s.met.hsFull.Load() == 1 })
	c1.Close()
}

// TestHandshakeStorm races full negotiations and resumptions from many
// clients against one listener — the shape the -race CI step runs.
func TestHandshakeStorm(t *testing.T) {
	key, _ := serverKeys(t)
	s := New(prng.NewSeeded([]byte("storm")))
	s.SetHandshakePolicy(HandshakePolicy{Workers: 2, Backlog: 64, Timeout: 10 * time.Second})
	path, err := s.Serve(ServedConfig{Location: "storm.example.com", Key: key, FS: vfs.New()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.ListenAndServe(l) //nolint:errcheck

	const workers, iters = 4, 3
	tempKey, err := rabin.GenerateKey(prng.NewSeeded([]byte("storm-temp")), 768)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := prng.NewSeeded([]byte{byte('s'), byte(w)})
			var ticket *secchan.ResumeTicket
			for i := 0; i < iters; i++ {
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					errs <- err
					return
				}
				sec, info, _, err := secchan.ClientHandshakeResume(conn, secchan.ServiceFile, path, tempKey, rng, ticket)
				if err != nil {
					errs <- err
					conn.Close()
					return
				}
				ticket = info.Ticket
				sec.Close()
				// Give the server's post-handshake cache insert a beat so
				// the next reconnect hits rather than falling back.
				time.Sleep(5 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every connection established a session — first per worker in
	// full, later ones by resumption (a rare lost race on the cache
	// insert falls back to full, which still establishes).
	waitFor(t, "storm counters", func() bool {
		m := &s.met
		return m.hsFull.Load()+m.hsResumed.Load() == workers*iters
	})
	if s.met.hsResumed.Load() == 0 {
		t.Fatal("storm never resumed a session")
	}
	if got := s.met.rejBusy.Load(); got != 0 {
		t.Fatalf("storm shed %d connections with a %d-deep backlog", got, 64)
	}
}
