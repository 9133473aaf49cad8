package main

// The system under test: the full SFS stack booted in-process the way
// cmd/sfssd and cmd/sfscd wire it — server master on a real loopback
// TCP listener, client daemons dialing it with net.Dial, encryption
// on, production-default knobs, and (for disk workloads) a diskstore
// with real fsyncs and the daemon's auto-checkpoint thresholds. No
// hardware model sits anywhere on the path.

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/authserv"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/server"
	"repro/internal/storage/diskstore"
	"repro/internal/vfs"
)

const (
	location = "bench.example.com"
	user     = "bench"
	// keyBits is the deployed key size (sfskey's default); the
	// era-model figures shrink to 768 bits, this regime does not.
	keyBits = 1024
	// leaseMS, ckptBytes: cmd/sfssd's flag defaults.
	leaseMS   = 60000
	ckptBytes = 64 << 20
	// traceRing sizes the client and server span rings in a traced run.
	traceRing = 256
)

var rootCred = vfs.Cred{UID: 0, GIDs: []uint32{0}}

// stack is one booted deployment: a server master serving one file
// system, and the client daemons connected to it.
type stack struct {
	dir      string // disk store directory; "" on the mem store
	ds       *diskstore.Store
	fs       *vfs.FS
	stopCkpt func()
	master   *server.Server
	ln       net.Listener
	base     string // self-certifying pathname of the served root
	userKey  *rabin.PrivateKey
	rng      *prng.Generator
	trace    bool
	wire     wireBytes
	clients  []*link
	// Measured by reopen(): the store's boot time and how many journal
	// records it replayed past the newest checkpoint image.
	recovery     time.Duration
	recoveryTail uint64
}

// link is one client daemon and the transport it currently rides.
type link struct {
	cl *client.Client
	st *stack

	mu    sync.Mutex
	conns []net.Conn // transports dialed since the last sever
	dials atomic.Int64
}

// wireBytes counts what crosses the loopback in a traced run.
type wireBytes struct{ tx, rx atomic.Uint64 }

// countingConn meters a client transport. Only traced runs wrap: the
// untraced client rides the bare *net.TCPConn, as sfscd's does.
type countingConn struct {
	net.Conn
	w *wireBytes
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.rx.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.tx.Add(uint64(n))
	return n, err
}

// bootStack generates the keys, opens the store (on disk under dir,
// or sfssd's default mem store when dir is empty), and starts the
// server master. Keys come from a fixed stream, not the workload
// seed: prime search time varies several-fold with the stream, and
// keys are not a workload input.
func bootStack(dir string, trace bool) (*stack, error) {
	st := &stack{trace: trace, rng: prng.NewSeeded([]byte("sfs-benchmark-keys")), stopCkpt: func() {}}
	key, err := rabin.GenerateKey(st.rng, keyBits)
	if err != nil {
		return nil, err
	}
	if st.userKey, err = rabin.GenerateKey(st.rng, keyBits); err != nil {
		return nil, err
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return nil, err
		}
		st.dir = dir
		if err := st.openStore(); err != nil {
			return nil, err
		}
	} else {
		st.fs = vfs.New()
	}
	path := core.MakePath(location, key.PublicKey.Bytes())
	auth := authserv.New(path.String(), st.rng)
	db := authserv.NewDB("local", true)
	auth.AddDB(db)
	if err := auth.Register(db, user, 0, []uint32{0}, authserv.RegisterOptions{PrivateKey: st.userKey}); err != nil {
		st.close()
		return nil, err
	}
	st.master = server.New(st.rng)
	cfg := server.ServedConfig{Location: location, Key: key, FS: st.fs, Auth: auth, LeaseMS: leaseMS}
	if trace {
		cfg.TraceSpans = traceRing
	}
	if _, err := st.master.Serve(cfg); err != nil {
		st.close()
		return nil, err
	}
	if st.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		st.close()
		return nil, err
	}
	go st.master.ListenAndServe(st.ln) //nolint:errcheck // returns when close() shuts the listener
	st.base = path.String()
	return st, nil
}

// openStore opens the disk store and replays it into a fresh vfs, as
// sfssd does at boot.
func (st *stack) openStore() error {
	ds, err := diskstore.Open(st.dir, diskstore.Options{HotBytes: diskstore.DefaultHotBytes})
	if err != nil {
		return err
	}
	fs, err := vfs.NewWithStores(ds, ds)
	if err != nil {
		ds.Close()
		return err
	}
	st.ds, st.fs = ds, fs
	st.stopCkpt = fs.StartAutoCheckpoint(ckptBytes, 0)
	return nil
}

// newClient connects one more client daemon with sfscd's defaults.
func (st *stack) newClient(seed string) (*link, error) {
	ln := &link{st: st}
	cfg := client.Config{
		Dial:            ln.dial,
		RNG:             prng.NewSeeded([]byte(seed)),
		EnhancedCaching: true,
	}
	if st.trace {
		cfg.TraceSpans = traceRing
	}
	cl, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	a := agent.New(user, st.rng)
	a.AddKey(st.userKey)
	cl.RegisterAgent(user, a)
	ln.cl = cl
	st.clients = append(st.clients, ln)
	return ln, nil
}

func (l *link) dial(string) (net.Conn, error) {
	c, err := net.Dial("tcp", l.st.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	if l.st.trace {
		c = &countingConn{Conn: c, w: &l.st.wire}
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	l.dials.Add(1)
	return c, nil
}

// sever closes the client's current transport under it — a server
// restart or network drop as the client sees it.
func (l *link) sever() {
	l.mu.Lock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = l.conns[:0]
	l.mu.Unlock()
}

func (st *stack) abs(rel string) string { return st.base + "/" + rel }

// close stops the deployment: clients' transports, the listener, the
// checkpoint loop, the store. The store directory is left in place.
func (st *stack) close() error {
	for _, l := range st.clients {
		l.sever()
	}
	st.clients = nil
	if st.ln != nil {
		st.ln.Close()
		st.ln = nil
	}
	st.stopCkpt()
	st.stopCkpt = func() {}
	if st.ds != nil {
		err := st.ds.Close()
		st.ds = nil
		if err != nil {
			return fmt.Errorf("closing disk store: %w", err)
		}
	}
	return nil
}

// reopen shuts the deployment down and boots the store again from the
// same directory, timing the recovery the way a restarted sfssd pays
// it. The returned file system is served by nobody.
func (st *stack) reopen() (*vfs.FS, error) {
	if err := st.close(); err != nil {
		return nil, err
	}
	t := time.Now()
	if err := st.openStore(); err != nil {
		return nil, err
	}
	st.recovery = time.Since(t)
	st.recoveryTail = st.fs.LastReplay().TailRecords
	return st.fs, nil
}
