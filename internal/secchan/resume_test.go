package secchan

import (
	"crypto/sha1"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/prng"
)

// echoCheck pushes one message each way over an established pair.
func echoCheck(t *testing.T, cc, sc *Conn) {
	t.Helper()
	msg := []byte("resumed channel payload")
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 64)
		n, err := sc.Read(buf)
		if err != nil {
			done <- err
			return
		}
		_, err = sc.Write(buf[:n])
		done <- err
	}()
	if _, err := cc.Write(msg); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := cc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != string(msg) {
		t.Fatalf("echo mismatch: %q", buf[:n])
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// serveHello answers one hello on c2: resume from cache when possible,
// full handshake otherwise (including the fallback after a miss).
func serveHello(t *testing.T, c2 io.ReadWriteCloser, cache *ResumeCache, seed string) (*Conn, *Info, bool, error) {
	t.Helper()
	sk, _, _ := testKeys(t)
	rng := prng.NewSeeded([]byte("server-" + seed))
	hello, err := ReadHello(c2)
	if err != nil {
		return nil, nil, false, err
	}
	if hello.Resume != nil {
		conn, info, hit, err := AcceptResume(c2, hello.Resume, cache, rng)
		if err != nil || hit {
			return conn, info, true, err
		}
		// Miss: the client now falls back to SFS_CONNECT.
		req, err := ReadConnect(c2)
		if err != nil {
			return nil, nil, false, err
		}
		conn, info, err = ServerHandshakeSession(c2, req, sk, rng, cache)
		return conn, info, false, err
	}
	conn, info, err := ServerHandshakeSession(c2, hello.Connect, sk, rng, cache)
	return conn, info, false, err
}

// resumePair establishes a full session against cache, closes it, and
// reconnects with the minted ticket.
func resumePair(t *testing.T, cache *ResumeCache, seed string) (cc, sc *Conn, ci, si *Info, resumed bool) {
	t.Helper()
	sk, tk, _ := testKeys(t)
	path := core.MakePath("server.example.com", sk.PublicKey.Bytes())

	// Full handshake first: mints the ticket, seeds the cache.
	c1, c2 := net.Pipe()
	type srvRes struct {
		conn    *Conn
		info    *Info
		resumed bool
		err     error
	}
	ch := make(chan srvRes, 1)
	go func() {
		conn, info, r, err := serveHello(t, c2, cache, seed+"-full")
		ch <- srvRes{conn, info, r, err}
	}()
	rng := prng.NewSeeded([]byte("client-" + seed))
	fcc, finfo, _, err := ClientHandshake(c1, ServiceFile, path, tk, rng)
	if err != nil {
		t.Fatal(err)
	}
	fres := <-ch
	if fres.err != nil {
		t.Fatal(fres.err)
	}
	if finfo.Ticket == nil {
		t.Fatal("full handshake minted no ticket")
	}
	fcc.Close()
	fres.conn.Close()

	// Reconnect with the ticket.
	r1, r2 := net.Pipe()
	t.Cleanup(func() { r1.Close(); r2.Close() })
	go func() {
		conn, info, r, err := serveHello(t, r2, cache, seed+"-resume")
		ch <- srvRes{conn, info, r, err}
	}()
	cc, ci, _, err = ClientHandshakeResume(r1, ServiceFile, path, tk, rng, finfo.Ticket)
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.err != nil {
		t.Fatal(res.err)
	}
	return cc, res.conn, ci, res.info, res.resumed
}

func TestResumeRoundTrip(t *testing.T) {
	cache := NewResumeCache(1<<16, time.Hour)
	before := chanStats.rabinDecrypts.Load()
	cc, sc, ci, si, resumed := resumePair(t, cache, "roundtrip")
	if !resumed {
		t.Fatal("reconnect did not resume")
	}
	// The full handshake costs two decrypts (one per side in-process);
	// the resumption must add zero.
	if got := chanStats.rabinDecrypts.Load() - before; got != 2 {
		t.Fatalf("rabin decrypts across full+resume = %d, want 2 (resume must be free)", got)
	}
	if ci.SessionID != si.SessionID {
		t.Fatal("resumed session IDs disagree")
	}
	if ci.Ticket == nil {
		t.Fatal("resumed session minted no client ticket")
	}
	if ci.Ticket.SessionID() != ci.SessionID {
		t.Fatal("fresh ticket names the wrong session")
	}
	echoCheck(t, cc, sc)
	st := cache.Stats()
	if st.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.Hits)
	}
	// The resumed session's next ticket replaced the consumed entry.
	if st.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1 (single-use + reinsert)", st.Entries)
	}
}

func TestResumeRekeysSession(t *testing.T) {
	cache := NewResumeCache(1<<16, time.Hour)
	_, _, ci, _, _ := resumePair(t, cache, "rekey")
	// Establish once more: three distinct session IDs prove each
	// connection got fresh key material.
	sk, _, _ := testKeys(t)
	_ = sk
	cc2, sc2, ci2, _, resumed := resumePair(t, NewResumeCache(1<<16, time.Hour), "rekey2")
	if !resumed {
		t.Fatal("second pair did not resume")
	}
	if ci.SessionID == ci2.SessionID {
		t.Fatal("independent sessions share a session ID")
	}
	cc2.Close()
	sc2.Close()
}

func TestResumeMissFallsBack(t *testing.T) {
	sk, tk, _ := testKeys(t)
	path := core.MakePath("server.example.com", sk.PublicKey.Bytes())
	// Empty cache: the server has never seen this session (restart).
	cache := NewResumeCache(1<<16, time.Hour)
	bogus := &ResumeTicket{}
	copy(bogus.sessionID[:], []byte("no such session id.."))

	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	type srvRes struct {
		conn    *Conn
		resumed bool
		err     error
	}
	ch := make(chan srvRes, 1)
	go func() {
		conn, _, r, err := serveHello(t, c2, cache, "miss")
		ch <- srvRes{conn, r, err}
	}()
	rng := prng.NewSeeded([]byte("client-miss"))
	cc, info, _, err := ClientHandshakeResume(c1, ServiceFile, path, tk, rng, bogus)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	res := <-ch
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.resumed {
		t.Fatal("server claims a resume for an unknown session")
	}
	if info.Ticket == nil {
		t.Fatal("fallback handshake minted no ticket")
	}
	echoCheck(t, cc, res.conn)
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("cache misses = %d, want 1", st.Misses)
	}
}

func TestResumeTicketExpiry(t *testing.T) {
	cache := NewResumeCache(1<<16, time.Minute)
	now := time.Unix(1000, 0)
	cache.now = func() time.Time { return now }
	var sid [sha1.Size]byte
	var rms [keyHalf]byte
	copy(sid[:], []byte("expiring session id."))
	cache.put(sid, rms, nil, resumeBinding{})
	now = now.Add(2 * time.Minute)
	if _, _, ok := cache.take(sid, resumeBinding{}); ok {
		t.Fatal("expired ticket resumed")
	}
	st := cache.Stats()
	if st.Expired != 1 || st.Hits != 0 {
		t.Fatalf("expired=%d hits=%d, want 1/0", st.Expired, st.Hits)
	}
	if st.Entries != 0 {
		t.Fatal("expired entry retained")
	}
}

func TestResumeCacheEviction(t *testing.T) {
	// Budget for exactly 4 entries.
	cache := NewResumeCache(4*resumeEntryBytes, time.Hour)
	var rms [keyHalf]byte
	sid := func(i byte) (s [sha1.Size]byte) { s[0] = i; return }
	for i := byte(0); i < 4; i++ {
		cache.put(sid(i), rms, nil, resumeBinding{})
	}
	if st := cache.Stats(); st.Evictions != 0 || st.Entries != 4 {
		t.Fatalf("premature eviction: %+v", st)
	}
	// A fifth entry must evict one; CLOCK clears reference bits on the
	// first sweep and evicts the first unreferenced entry (entry 0).
	cache.put(sid(4), rms, nil, resumeBinding{})
	st := cache.Stats()
	if st.Evictions != 1 || st.Entries != 4 {
		t.Fatalf("eviction did not bound the cache: %+v", st)
	}
	if st.Bytes > 4*resumeEntryBytes {
		t.Fatalf("accounted bytes %d exceed budget", st.Bytes)
	}
	if _, _, ok := cache.take(sid(0), resumeBinding{}); ok {
		t.Fatal("CLOCK kept the stale entry")
	}
	if _, _, ok := cache.take(sid(4), resumeBinding{}); !ok {
		t.Fatal("fresh entry missing after eviction")
	}
}

func TestResumeSingleUse(t *testing.T) {
	cache := NewResumeCache(1<<16, time.Hour)
	var sid [sha1.Size]byte
	var rms [keyHalf]byte
	sid[0] = 7
	cache.put(sid, rms, nil, resumeBinding{})
	if _, _, ok := cache.take(sid, resumeBinding{}); !ok {
		t.Fatal("first take missed")
	}
	if _, _, ok := cache.take(sid, resumeBinding{}); ok {
		t.Fatal("ticket replayed: second take hit")
	}
}

func TestResumeCacheRingNoLeak(t *testing.T) {
	// Regression: a steady-state take/put cycle stays under the byte
	// budget, so eviction never runs — consumed entries must still leave
	// the CLOCK ring, or every resumption leaks a dead slot forever.
	cache := NewResumeCache(1<<20, time.Hour)
	var rms [keyHalf]byte
	sid := func(i int) (s [sha1.Size]byte) {
		s[0], s[1], s[2], s[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		return
	}
	cache.put(sid(0), rms, nil, resumeBinding{})
	for i := 1; i <= 10000; i++ {
		if _, _, ok := cache.take(sid(i-1), resumeBinding{}); !ok {
			t.Fatalf("cycle %d: take missed", i)
		}
		cache.put(sid(i), rms, nil, resumeBinding{})
	}
	cache.mu.Lock()
	ring, entries := len(cache.ring), len(cache.entries)
	cache.mu.Unlock()
	if ring != entries {
		t.Fatalf("ring holds %d slots for %d live entries (dead-slot leak)", ring, entries)
	}
	if entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	if st := cache.Stats(); st.Bytes != resumeEntryBytes {
		t.Fatalf("accounted bytes = %d, want %d", st.Bytes, resumeEntryBytes)
	}
}

func TestResumeBindingMismatch(t *testing.T) {
	// A ticket minted for one endpoint must not resume another: any
	// (hostID, location, service) drift is a miss and consumes the
	// single-use entry.
	cache := NewResumeCache(1<<16, time.Hour)
	var rms [keyHalf]byte
	bound := resumeBinding{location: "server.example.com", service: ServiceFile}
	bound.hostID[0] = 1
	sid := func(i byte) (s [sha1.Size]byte) { s[0] = i; return }

	other := bound
	other.service = ServiceAuth
	cache.put(sid(1), rms, nil, bound)
	if _, _, ok := cache.take(sid(1), other); ok {
		t.Fatal("ticket redeemed for a different service")
	}
	if _, _, ok := cache.take(sid(1), bound); ok {
		t.Fatal("binding miss did not consume the single-use entry")
	}

	other = bound
	other.hostID[0] = 2
	cache.put(sid(2), rms, nil, bound)
	if _, _, ok := cache.take(sid(2), other); ok {
		t.Fatal("ticket redeemed for a different hostID")
	}

	cache.put(sid(3), rms, nil, bound)
	if _, _, ok := cache.take(sid(3), bound); !ok {
		t.Fatal("matching binding missed")
	}
	st := cache.Stats()
	if st.BindingMiss != 2 {
		t.Fatalf("binding misses = %d, want 2", st.BindingMiss)
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
}

func TestRejectBusy(t *testing.T) {
	sk, tk, _ := testKeys(t)
	path := core.MakePath("server.example.com", sk.PublicKey.Bytes())
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	go func() {
		if _, err := ReadConnect(c2); err != nil {
			return
		}
		RejectBusy(c2) //nolint:errcheck
	}()
	rng := prng.NewSeeded([]byte("busy-client"))
	_, _, _, err := ClientHandshake(c1, ServiceFile, path, tk, rng)
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("got %v, want ErrServerBusy", err)
	}
}

func TestClientConnectPlainErrors(t *testing.T) {
	sk, _, _ := testKeys(t)
	path := core.MakePath("server.example.com", sk.PublicKey.Bytes())
	cases := []struct {
		name  string
		serve func(io.ReadWriter)
		want  error
	}{
		{"nosuch", func(c io.ReadWriter) { RejectNoSuchFS(c) }, ErrNoSuchFS},                                  //nolint:errcheck
		{"busy", func(c io.ReadWriter) { RejectBusy(c) }, ErrServerBusy},                                      //nolint:errcheck
		{"wrongkey", func(c io.ReadWriter) { AcceptPlain(c, otherKey.PublicKey.Bytes()) }, ErrHostIDMismatch}, //nolint:errcheck
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := net.Pipe()
			t.Cleanup(func() { c1.Close(); c2.Close() })
			go func() {
				if _, err := ReadConnect(c2); err != nil {
					return
				}
				tc.serve(c2)
			}()
			if _, err := ClientConnectPlain(c1, ServiceFileRO, path); !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReadHelloRoutesBothTags(t *testing.T) {
	sk, tk, _ := testKeys(t)
	path := core.MakePath("server.example.com", sk.PublicKey.Bytes())
	// Connect hello.
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	go ClientConnectPlain(c1, ServiceFile, path) //nolint:errcheck
	hello, err := ReadHello(c2)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Connect == nil || hello.Resume != nil {
		t.Fatal("connect hello misrouted")
	}
	// Resume hello.
	r1, r2 := net.Pipe()
	t.Cleanup(func() { r1.Close(); r2.Close() })
	go func() {
		rng := prng.NewSeeded([]byte("hello-resume"))
		ClientHandshakeResume(r1, ServiceFile, path, tk, rng, &ResumeTicket{}) //nolint:errcheck
	}()
	hello, err = ReadHello(r2)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Resume == nil || hello.Connect != nil {
		t.Fatal("resume hello misrouted")
	}
	if hello.Resume.Location != path.Location {
		t.Fatalf("resume hello location %q", hello.Resume.Location)
	}
	RejectResume(r2) //nolint:errcheck
}
