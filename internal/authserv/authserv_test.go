package authserv

import (
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

const testCost = 4 // keep eksblowfish fast in tests

var (
	akOnce sync.Once
	userK  *rabin.PrivateKey
	introK *rabin.PrivateKey
)

func userKeys(t testing.TB) (*rabin.PrivateKey, *rabin.PrivateKey) {
	t.Helper()
	akOnce.Do(func() {
		g := prng.NewSeeded([]byte("authserv-test"))
		var err error
		if userK, err = rabin.GenerateKey(g, 512); err != nil {
			t.Fatal(err)
		}
		if introK, err = rabin.GenerateKey(g, 512); err != nil {
			t.Fatal(err)
		}
	})
	return userK, introK
}

func newTestServer(t testing.TB) (*Server, *DB) {
	t.Helper()
	g := prng.NewSeeded([]byte("authserv-server"))
	s := New("/sfs/server.example.com:"+core.ComputeHostID("server.example.com", []byte("k")).String(), g)
	db := NewDB("local", true)
	s.AddDB(db)
	return s, db
}

func register(t testing.TB, s *Server, db *DB, user string, uid uint32, k *rabin.PrivateKey, password string) {
	t.Helper()
	err := s.Register(db, user, uid, []uint32{uid}, RegisterOptions{
		Password: password, PrivateKey: k, EksCost: testCost,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func makeAuthInfo(session byte) sfsrpc.AuthInfo {
	var sid [20]byte
	sid[0] = session
	return sfsrpc.NewAuthInfo("server.example.com",
		core.ComputeHostID("server.example.com", []byte("k")), sid)
}

func signLogin(t testing.TB, k *rabin.PrivateKey, ai sfsrpc.AuthInfo, seq uint32) []byte {
	t.Helper()
	g := prng.NewSeeded([]byte{byte(seq), 0x55})
	req := sfsrpc.SignedAuthReq{Tag: "SignedAuthReq", AuthID: ai.AuthID(), SeqNo: seq}
	sig, err := k.Sign(g, req.Digest())
	if err != nil {
		t.Fatal(err)
	}
	m := sfsrpc.AuthMsg{UserKey: k.PublicKey.Bytes(), Req: req, Sig: *sig}
	return m.Marshal()
}

func TestValidateMapsKeyToCredentials(t *testing.T) {
	uk, _ := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "")
	ai := makeAuthInfo(1)
	res := s.Validate(sfsrpc.ValidateArgs{AuthInfo: ai, SeqNo: 3, AuthMsg: signLogin(t, uk, ai, 3)})
	if !res.OK {
		t.Fatal("valid login rejected")
	}
	if res.Creds.User != "dm" || res.Creds.UID != 1000 {
		t.Fatalf("credentials %+v", res.Creds)
	}
	if res.SeqNo != 3 || res.AuthID != ai.AuthID() {
		t.Fatal("echoed AuthID/SeqNo wrong")
	}
}

func TestValidateUnknownKeyRejected(t *testing.T) {
	uk, ik := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "")
	ai := makeAuthInfo(1)
	res := s.Validate(sfsrpc.ValidateArgs{AuthInfo: ai, SeqNo: 1, AuthMsg: signLogin(t, ik, ai, 1)})
	if res.OK {
		t.Fatal("unknown key accepted")
	}
}

func TestGuestCredentials(t *testing.T) {
	uk, ik := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "")
	s.SetGuestCredentials(&sfsrpc.Credentials{User: "guest", UID: 32000, GIDs: []uint32{32000}})
	ai := makeAuthInfo(1)
	res := s.Validate(sfsrpc.ValidateArgs{AuthInfo: ai, SeqNo: 1, AuthMsg: signLogin(t, ik, ai, 1)})
	if !res.OK || res.Creds.User != "guest" {
		t.Fatalf("guest login: %+v", res)
	}
}

func TestValidateRejectsWrongSession(t *testing.T) {
	uk, _ := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "")
	res := s.Validate(sfsrpc.ValidateArgs{
		AuthInfo: makeAuthInfo(2), SeqNo: 1, AuthMsg: signLogin(t, uk, makeAuthInfo(1), 1),
	})
	if res.OK {
		t.Fatal("cross-session replay accepted")
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	s, _ := newTestServer(t)
	res := s.Validate(sfsrpc.ValidateArgs{AuthInfo: makeAuthInfo(1), SeqNo: 1, AuthMsg: []byte("junk")})
	if res.OK {
		t.Fatal("garbage accepted")
	}
}

func TestDBPrecedence(t *testing.T) {
	uk, _ := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "")
	// A second database with the same key but different creds: the
	// first database must win.
	db2 := NewDB("second", true)
	db2.Put(UserRecord{User: "dm2", UID: 2000, GIDs: []uint32{2000}, PublicKey: uk.PublicKey.Bytes()}) //nolint:errcheck
	s.AddDB(db2)
	ai := makeAuthInfo(1)
	res := s.Validate(sfsrpc.ValidateArgs{AuthInfo: ai, SeqNo: 1, AuthMsg: signLogin(t, uk, ai, 1)})
	if res.Creds.UID != 1000 {
		t.Fatalf("precedence broken: %+v", res.Creds)
	}
}

func TestReadOnlyDBRejectsWrites(t *testing.T) {
	db := NewDB("ro", false)
	if err := db.Put(UserRecord{User: "x"}); err != ErrReadOnly {
		t.Fatalf("got %v, want ErrReadOnly", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	uk, _ := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "")
	err := s.Register(db, "dm", 1001, nil, RegisterOptions{PrivateKey: uk})
	if err != ErrUserExists {
		t.Fatalf("got %v, want ErrUserExists", err)
	}
}

func TestExportImportPublic(t *testing.T) {
	uk, _ := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "secret password")
	data := db.ExportPublic()
	imported, err := ImportPublic(data)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := imported.ByKey(uk.PublicKey.Bytes())
	if !ok {
		t.Fatal("imported DB missing user")
	}
	if len(rec.SRPVerifier) > 0 || len(rec.EncPrivKey) > 0 || len(rec.SRPSalt) > 0 {
		t.Fatal("public export leaked password material")
	}
	// The imported database works for validation on another server.
	s2 := New("/sfs/other:xxxx", prng.NewSeeded([]byte("s2")))
	s2.AddDB(imported)
	ai := makeAuthInfo(9)
	res := s2.Validate(sfsrpc.ValidateArgs{AuthInfo: ai, SeqNo: 1, AuthMsg: signLogin(t, uk, ai, 1)})
	if !res.OK || res.Creds.UID != 1000 {
		t.Fatalf("imported DB validation: %+v", res)
	}
}

func TestSealOpenKey(t *testing.T) {
	uk, _ := userKeys(t)
	g := prng.NewSeeded([]byte("seal"))
	passKey := g.Bytes(20)
	sealed, err := SealKey(passKey, uk, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenKey(passKey, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !got.PublicKey.Equal(&uk.PublicKey) {
		t.Fatal("unsealed key differs")
	}
	// Wrong key fails.
	wrong := g.Bytes(20)
	if _, err := OpenKey(wrong, sealed); err == nil {
		t.Fatal("wrong password key opened the seal")
	}
	// Tampering fails.
	sealed[len(sealed)/2] ^= 1
	if _, err := OpenKey(passKey, sealed); err == nil {
		t.Fatal("tampered seal opened")
	}
}

func dialKeyService(t *testing.T, s *Server) *sunrpc.Client {
	t.Helper()
	c1, c2 := net.Pipe()
	rpc := sunrpc.NewServer()
	rpc.Register(sfsrpc.KeyProgram, sfsrpc.Version, s.KeyServiceHandler())
	go rpc.ServeConn(c2) //nolint:errcheck
	cl := sunrpc.NewClient(c1)
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestFetchWithPassword(t *testing.T) {
	uk, _ := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "red sox beat yankees")
	cl := dialKeyService(t, s)
	g := prng.NewSeeded([]byte("fetch"))
	res, err := FetchWithPassword(cl, "dm", "red sox beat yankees", g)
	if err != nil {
		t.Fatal(err)
	}
	if res.SelfPath != s.SelfPath() {
		t.Fatalf("self path %q", res.SelfPath)
	}
	if res.PrivateKey == nil || !res.PrivateKey.PublicKey.Equal(&uk.PublicKey) {
		t.Fatal("private key not recovered")
	}
}

// TestFetchRunsAtRegisteredCost: the eksblowfish work factor is a
// per-user registration choice, and every password exchange runs at
// the cost the user's record carries (the client hashes at the cost
// the server returns from that record). Each exchange that reaches a
// matching proof counts one SRP confirm. That a unit of cost doubles
// the work is pinned in blowfish's own tests.
func TestFetchRunsAtRegisteredCost(t *testing.T) {
	uk, _ := userKeys(t)
	for _, cost := range []uint{2, 4} {
		s, db := newTestServer(t)
		if err := s.Register(db, "dm", 1000, []uint32{1000}, RegisterOptions{
			Password: "pw", PrivateKey: uk, EksCost: cost,
		}); err != nil {
			t.Fatal(err)
		}
		if rec, _ := db.ByName("dm"); rec.EksCost != uint32(cost) {
			t.Fatalf("registered at cost %d, record carries %d", cost, rec.EksCost)
		}
		g := prng.NewSeeded([]byte{'e', byte(cost)})
		for i := uint64(1); i <= 2; i++ {
			// A key-service handler serves one exchange, like a real
			// connection.
			if _, err := FetchWithPassword(dialKeyService(t, s), "dm", "pw", g); err != nil {
				t.Fatalf("cost %d: %v", cost, err)
			}
			if got := s.StatsSnapshot().SRPConfirms; got != i {
				t.Fatalf("cost %d: %d SRP confirms after %d exchanges", cost, got, i)
			}
		}
	}
}

func TestFetchWrongPassword(t *testing.T) {
	uk, _ := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "right password")
	cl := dialKeyService(t, s)
	g := prng.NewSeeded([]byte("fetch-wrong"))
	if _, err := FetchWithPassword(cl, "dm", "wrong password", g); err == nil {
		t.Fatal("wrong password succeeded")
	}
}

func TestFetchUnknownUser(t *testing.T) {
	s, _ := newTestServer(t)
	cl := dialKeyService(t, s)
	g := prng.NewSeeded([]byte("fetch-nouser"))
	if _, err := FetchWithPassword(cl, "nobody", "pw", g); err != ErrNoUser {
		t.Fatalf("got %v, want ErrNoUser", err)
	}
}

func TestValidateHandlerOverRPC(t *testing.T) {
	uk, _ := userKeys(t)
	s, db := newTestServer(t)
	register(t, s, db, "dm", 1000, uk, "")
	c1, c2 := net.Pipe()
	rpc := sunrpc.NewServer()
	rpc.Register(sfsrpc.AuthProgram, sfsrpc.Version, s.ValidateHandler())
	go rpc.ServeConn(c2) //nolint:errcheck
	cl := sunrpc.NewClient(c1)
	defer cl.Close()
	ai := makeAuthInfo(1)
	var res sfsrpc.ValidateRes
	err := cl.Call(sfsrpc.AuthProgram, sfsrpc.Version, sfsrpc.ProcLogin, sunrpc.NoAuth(),
		sfsrpc.ValidateArgs{AuthInfo: ai, SeqNo: 4, AuthMsg: signLogin(t, uk, ai, 4)}, &res)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Creds.User != "dm" {
		t.Fatalf("RPC validate: %+v", res)
	}
}

// ValidateHandler returns the RPC handler the file server calls to
// validate login requests (server↔authserver RPC, Figure 4 steps 4-5).
func (s *Server) ValidateHandler() sunrpc.Handler {
	return func(proc uint32, _ sunrpc.OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		if proc != sfsrpc.ProcLogin {
			return nil, sunrpc.ErrProcUnavail
		}
		var a sfsrpc.ValidateArgs
		if err := args.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		return s.Validate(a), nil
	}
}
