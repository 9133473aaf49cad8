// Package lab assembles complete SFS deployments — server master,
// authservers, file systems, client daemons, and agents — on loopback
// TCP, and the plain NFS 3 baseline the paper measures SFS against, on
// loopback UDP or TCP. Integration tests, the example programs, and
// the benchmark harness (internal/bench, over a shaped transport) all
// build their worlds with it.
package lab

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"

	"repro/internal/agent"
	"repro/internal/authserv"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/server"
	"repro/internal/sfsro"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

// KeyBits is the key size used by lab worlds. Real deployments used
// 1024-bit keys; 768 keeps handshakes fast while exercising identical
// code paths.
const KeyBits = 768

// World is one self-contained SFS deployment, with any NFS 3
// baselines served beside it.
type World struct {
	RNG    *prng.Generator
	Server *server.Server

	seed       string
	transport  func(net.Conn) net.Conn // nil: plain loopback TCP
	mu         sync.Mutex
	listeners  []net.Listener
	clients    []*client.Client
	nfsEnds    []io.Closer       // both ends of every ServeNFS connection
	nclients   int               // ordinals handed out by NewClient
	locs       map[string]string // Location -> TCP address
	served     map[string]*Served
	roRegistry *sfsro.Registry
}

// Served describes one file system in the world.
type Served struct {
	Location string
	Path     core.Path
	Key      *rabin.PrivateKey
	FS       *vfs.FS
	Auth     *authserv.Server
	DB       *authserv.DB
}

// NewWorld starts a server master listening on loopback.
func NewWorld(seed string) (*World, error) { return NewWorldOver(seed, nil) }

// NewWorldOver is NewWorld with every connection of the world — each
// one the master accepts and each one World.Dial opens — passed
// through transport first: the benchmark harness shapes both ends with
// its hardware model (internal/netsim), tests tap or count the wire.
func NewWorldOver(seed string, transport func(net.Conn) net.Conn) (*World, error) {
	rng := prng.NewSeeded([]byte("lab-" + seed))
	w := &World{
		RNG:       rng,
		Server:    server.New(rng),
		seed:      seed,
		transport: transport,
		locs:      make(map[string]string),
		served:    make(map[string]*Served),
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.listeners = append(w.listeners, l)
	if transport != nil {
		l = acceptVia{l, transport}
	}
	go w.Server.ListenAndServe(l) //nolint:errcheck
	return w, nil
}

// acceptVia passes each accepted connection through transport.
type acceptVia struct {
	net.Listener
	transport func(net.Conn) net.Conn
}

func (l acceptVia) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.transport(c), nil
}

// Close shuts the world's listeners down and closes the clients it
// made, which ends their server sessions too, and both ends of every
// NFS connection: a datagram socket sees no hang-up from its peer.
func (w *World) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, l := range w.listeners {
		l.Close()
	}
	for _, cl := range w.clients {
		cl.Close()
	}
	for _, c := range w.nfsEnds {
		c.Close()
	}
}

// ServeFS creates a key pair, substrate file system, and authserver
// for location and registers them with the server master. leaseMS
// enables the SFS caching extensions.
func (w *World) ServeFS(location string, leaseMS uint32) (*Served, error) {
	return w.ServeFSOn(server.ServedConfig{Location: location, LeaseMS: leaseMS})
}

// ServeFSOn registers cfg with the server master. The world supplies
// what cfg leaves zero: a fresh key pair, an in-memory substrate file
// system, and an authserver with one local database (Served.DB is nil
// when the caller brought its own Auth). Tests pass FS to serve a
// disk-backed (storage/diskstore) file system whose Restart crashes
// and replays for real.
func (w *World) ServeFSOn(cfg server.ServedConfig) (*Served, error) {
	if cfg.Key == nil {
		key, err := rabin.GenerateKey(w.RNG, KeyBits)
		if err != nil {
			return nil, err
		}
		cfg.Key = key
	}
	if cfg.FS == nil {
		cfg.FS = vfs.New()
	}
	path := core.MakePath(cfg.Location, cfg.Key.PublicKey.Bytes())
	var db *authserv.DB
	if cfg.Auth == nil {
		cfg.Auth = authserv.New(path.String(), w.RNG)
		db = authserv.NewDB("local", true)
		cfg.Auth.AddDB(db)
	}
	if _, err := w.Server.Serve(cfg); err != nil {
		return nil, err
	}
	s := &Served{Location: cfg.Location, Path: path, Key: cfg.Key, FS: cfg.FS, Auth: cfg.Auth, DB: db}
	w.mu.Lock()
	w.locs[cfg.Location] = w.listeners[0].Addr().String()
	w.served[cfg.Location] = s
	w.mu.Unlock()
	return s, nil
}

// ServeReadOnly publishes a signed database through the world's
// server master under the read-only dialect and returns its
// self-certifying pathname. The master never sees the private key;
// only the signed database is installed.
func (w *World) ServeReadOnly(db *sfsro.DB) (core.Path, error) {
	w.mu.Lock()
	if w.roRegistry == nil {
		w.roRegistry = sfsro.NewRegistry()
		w.Server.RegisterExtension(secchan.ServiceFileRO, w.roRegistry.HandleConn)
	}
	reg := w.roRegistry
	w.mu.Unlock()
	rep, err := sfsro.NewReplica(db)
	if err != nil {
		return core.Path{}, err
	}
	reg.Add(rep)
	p := rep.Path()
	w.mu.Lock()
	w.locs[p.Location] = w.listeners[0].Addr().String()
	w.mu.Unlock()
	return p, nil
}

// Dial implements the client Dialer over the world's location map.
func (w *World) Dial(location string) (net.Conn, error) {
	w.mu.Lock()
	addr, ok := w.locs[location]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("lab: unknown location %q", location)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil || w.transport == nil {
		return c, err
	}
	return w.transport(c), nil
}

// ServeNFS serves fs as the plain NFS 3 baseline — handles from
// nfs.PlainCodec, AUTH_UNIX credentials trusted, no leases — over one
// loopback connection on network, "udp" or "tcp", and returns the
// server and a client dialed on that connection with cfg. Both ends
// pass through the world's transport, as the SFS connections do. On
// UDP each end is then a sunrpc.DatagramConn, so the server end is one
// session on the same peer loop as a stream. World.Close ends both.
func (w *World) ServeNFS(fs *vfs.FS, network string, cfg nfs.ClientConfig) (*nfs.Server, *nfs.Client, error) {
	srvEnd, cliEnd, err := loopbackPair(network)
	if err != nil {
		return nil, nil, err
	}
	if w.transport != nil {
		srvEnd, cliEnd = w.transport(srvEnd), w.transport(cliEnd)
	}
	var srvConn, cliConn io.ReadWriteCloser = srvEnd, cliEnd
	if network == "udp" {
		srvConn, cliConn = sunrpc.NewDatagramConn(srvEnd), sunrpc.NewDatagramConn(cliEnd)
	}
	srv := nfs.NewServer(fs, nfs.ServerConfig{})
	sess := srv.ServeConn(srvConn)
	cl := nfs.Dial(cliConn, cfg)
	w.mu.Lock()
	w.nfsEnds = append(w.nfsEnds, cl, sess)
	w.mu.Unlock()
	return srv, cl, nil
}

// loopbackPair opens one loopback connection on network and returns
// its server and client ends: over "tcp" the accepted and the dialed
// stream, over "udp" a bound socket fixed to the one client address
// and the socket dialed to it.
func loopbackPair(network string) (srv, cl net.Conn, err error) {
	switch network {
	case "tcp":
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		defer l.Close()
		if cl, err = net.Dial("tcp", l.Addr().String()); err != nil {
			return nil, nil, err
		}
		if srv, err = l.Accept(); err != nil {
			cl.Close()
			return nil, nil, err
		}
		return srv, cl, nil
	case "udp":
		pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, nil, err
		}
		c, err := net.DialUDP("udp", nil, pc.LocalAddr().(*net.UDPAddr))
		if err != nil {
			pc.Close()
			return nil, nil, err
		}
		return udpPeer{pc, c.LocalAddr().(*net.UDPAddr).AddrPort()}, c, nil
	}
	return nil, nil, fmt.Errorf("lab: unknown network %q", network)
}

// udpPeer is a bound UDP socket fixed to one peer address: it reads
// only that peer's datagrams and writes every datagram to it.
type udpPeer struct {
	*net.UDPConn
	peer netip.AddrPort
}

func (c udpPeer) Read(p []byte) (int, error) {
	for {
		n, from, err := c.ReadFromUDPAddrPort(p)
		if err != nil || from == c.peer {
			return n, err
		}
	}
}

func (c udpPeer) Write(p []byte) (int, error) { return c.WriteToUDPAddrPort(p, c.peer) }

func (c udpPeer) RemoteAddr() net.Addr { return net.UDPAddrFromAddrPort(c.peer) }

// NewClient starts a client daemon from cfg. The world supplies what
// cfg leaves zero: its own dialer, and an RNG seeded from the world's
// seed and the client's ordinal. World.Close closes the client.
func (w *World) NewClient(cfg client.Config) (*client.Client, error) {
	w.mu.Lock()
	n := w.nclients
	w.nclients++
	w.mu.Unlock()
	if cfg.Dial == nil {
		cfg.Dial = w.Dial
	}
	if cfg.RNG == nil {
		cfg.RNG = prng.NewSeeded([]byte(fmt.Sprintf("lab-client-%s-%d", w.seed, n)))
	}
	cl, err := client.New(cfg)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.clients = append(w.clients, cl)
	w.mu.Unlock()
	return cl, nil
}

// NewUser creates a key pair and agent for a user, registers the user
// with the served file system's authserver, and attaches the agent to
// cl. Returns the agent.
func (w *World) NewUser(cl *client.Client, s *Served, user string, uid uint32, password string) (*agent.Agent, error) {
	key, err := rabin.GenerateKey(w.RNG, KeyBits)
	if err != nil {
		return nil, err
	}
	err = s.Auth.Register(s.DB, user, uid, []uint32{uid}, authserv.RegisterOptions{
		Password: password, PrivateKey: key, EksCost: 4,
	})
	if err != nil {
		return nil, err
	}
	a := agent.New(user, w.RNG)
	a.AddKey(key)
	cl.RegisterAgent(user, a)
	return a, nil
}

// NewAnonymousUser attaches a keyless agent: all accesses proceed with
// anonymous permissions.
func (w *World) NewAnonymousUser(cl *client.Client, user string) *agent.Agent {
	a := agent.New(user, w.RNG)
	cl.RegisterAgent(user, a)
	return a
}
