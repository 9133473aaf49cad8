// Package bench implements the paper's evaluation (§4): the four file
// system stacks under test (Local FFS stand-in, NFS 3 over UDP, NFS 3
// over TCP, and SFS with its ablation knobs), the workloads (null-RPC
// and streaming micro-benchmarks, the Modified Andrew Benchmark, a
// synthetic kernel compile, and the Sprite LFS small- and large-file
// benchmarks), and harness functions that regenerate every figure.
//
// Hardware-era costs come from internal/netsim; protocol behaviour
// (RPC counts, caching, crypto) is executed for real. EXPERIMENTS.md
// records paper-vs-measured numbers for each figure.
package bench

import (
	"fmt"
	"net"

	"repro/internal/agent"
	"repro/internal/client"
	"repro/internal/lab"
	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/storage/memstore"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

// Stack abstracts one file system configuration under benchmark. All
// paths are relative to the stack's working root.
type Stack interface {
	Name() string
	// Mkdir creates a directory.
	Mkdir(path string) error
	// WriteFile creates path with data and flushes it to stable
	// storage, as the Sprite benchmarks require.
	WriteFile(path string, data []byte) error
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// Stat fetches attributes.
	Stat(path string) error
	// StatMtime fetches a file's modification time, for the
	// close-to-open revalidation the compile workload models.
	StatMtime(path string) (int64, error)
	// ReadDir lists a directory.
	ReadDir(path string) error
	// Remove unlinks a file.
	Remove(path string) error
	// ChownFail attempts an unauthorized chown; the paper's
	// latency micro-benchmark (always a round trip, never disk).
	ChownFail(path string) error
	// Truncate sets a file's size (sparse files for the streaming
	// micro-benchmark).
	Truncate(path string, size uint64) error
	// Open returns a handle for chunked I/O.
	Open(path string) (StackFile, error)
	// Create returns a writable handle.
	Create(path string) (StackFile, error)
	// Stats reports wire RPCs when the stack has a wire.
	Stats() nfs.Stats
	// ServerStats reports the server-side NFS counters (per-procedure
	// calls, write stability, COMMIT batches) when the stack has a
	// server; ok is false for the local baseline.
	ServerStats() (nfs.ServerStats, bool)
	// Close tears the stack down.
	Close()
}

// StackFile is an open file on a stack.
type StackFile interface {
	ReadAt(p []byte, off uint64) (int, error)
	WriteAt(p []byte, off uint64) (int, error)
	Sync() error
}

// ---------------------------------------------------------------------
// Local: the substrate file system driven directly (the paper's
// "Local" FFS rows).

type localStack struct {
	fs   *vfs.FS
	cred vfs.Cred
}

// NewLocal builds the local baseline over fs (newEraFS for era-accurate
// timings).
func NewLocal(fs *vfs.FS) Stack {
	return &localStack{fs: fs, cred: vfs.Cred{UID: 0, GIDs: []uint32{0}}}
}

func (s *localStack) Name() string { return "Local" }

func (s *localStack) Mkdir(path string) error {
	_, err := s.fs.MkdirAll(s.cred, path, 0o755)
	return err
}

func (s *localStack) WriteFile(path string, data []byte) error {
	if err := s.fs.WriteFile(s.cred, path, data, 0o644); err != nil {
		return err
	}
	id, _, err := s.fs.Resolve(s.cred, path)
	if err != nil {
		return err
	}
	return s.fs.Commit(id)
}

func (s *localStack) ReadFile(path string) ([]byte, error) {
	return s.fs.ReadFile(s.cred, path)
}

func (s *localStack) Stat(path string) error {
	id, _, err := s.fs.Resolve(s.cred, path)
	if err != nil {
		return err
	}
	_, err = s.fs.GetAttr(id)
	return err
}

func (s *localStack) StatMtime(path string) (int64, error) {
	id, _, err := s.fs.Resolve(s.cred, path)
	if err != nil {
		return 0, err
	}
	attr, err := s.fs.GetAttr(id)
	if err != nil {
		return 0, err
	}
	return attr.Mtime.UnixNano(), nil
}

func (s *localStack) ReadDir(path string) error {
	id, _, err := s.fs.Resolve(s.cred, path)
	if err != nil {
		return err
	}
	_, _, err = s.fs.ReadDir(s.cred, id, 0, 0)
	return err
}

func (s *localStack) Remove(path string) error {
	dir, name := splitDirFile(path)
	dirID, _, err := s.fs.Resolve(s.cred, dir)
	if err != nil {
		return err
	}
	return s.fs.Remove(s.cred, dirID, name)
}

// ChownFail is the paper's latency probe: an unauthorized fchown on
// an already-open file — always a round trip for remote stacks, never
// a disk access. Stacks cache the resolved handle after the first
// call so steady-state cost is exactly one RPC.
func (s *localStack) ChownFail(path string) error {
	id, _, err := s.fs.Resolve(s.cred, path)
	if err != nil {
		return err
	}
	uid := uint32(12345)
	nonOwner := vfs.Cred{UID: 40000, GIDs: []uint32{40000}}
	if _, err := s.fs.SetAttrs(nonOwner, id, vfs.SetAttr{UID: &uid}); err == nil {
		return fmt.Errorf("bench: unauthorized chown unexpectedly succeeded")
	}
	return nil
}

type localFile struct {
	s  *localStack
	id vfs.FileID
}

func (s *localStack) Open(path string) (StackFile, error) {
	id, _, err := s.fs.Resolve(s.cred, path)
	if err != nil {
		return nil, err
	}
	return &localFile{s: s, id: id}, nil
}

func (s *localStack) Create(path string) (StackFile, error) {
	if err := s.fs.WriteFile(s.cred, path, nil, 0o644); err != nil {
		return nil, err
	}
	return s.Open(path)
}

func (f *localFile) ReadAt(p []byte, off uint64) (int, error) {
	data, _, err := f.s.fs.Read(f.s.cred, f.id, off, uint32(len(p)))
	if err != nil {
		return 0, err
	}
	return copy(p, data), nil
}

func (f *localFile) WriteAt(p []byte, off uint64) (int, error) {
	if _, err := f.s.fs.Write(f.s.cred, f.id, off, p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f *localFile) Sync() error { return f.s.fs.Commit(f.id) }

func (s *localStack) Truncate(path string, size uint64) error {
	id, _, err := s.fs.Resolve(s.cred, path)
	if err != nil {
		return err
	}
	_, err = s.fs.SetAttrs(s.cred, id, vfs.SetAttr{Size: &size})
	return err
}

func (s *localStack) Stats() nfs.Stats                     { return nfs.Stats{} }
func (s *localStack) ServerStats() (nfs.ServerStats, bool) { return nfs.ServerStats{}, false }
func (s *localStack) Close()                               {}

func splitDirFile(path string) (string, string) {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i], path[i+1:]
		}
	}
	return "", path
}

// ---------------------------------------------------------------------
// NFS 3 baseline over a shaped transport (UDP or TCP).

type nfsStack struct {
	name     string
	srv      *nfs.Server
	cl       *nfs.Client
	root     nfs.FH
	ln       net.Listener
	pc       net.PacketConn
	dirs     map[string]nfs.FH
	files    map[string]nfs.FH
	chownFH  nfs.FH
	nonOwner *nfs.Client
}

// NewNFS builds the kernel-NFS baseline over fs with the given
// transport ("udp" or "tcp") and netsim profile.
func NewNFS(fs *vfs.FS, transport string, profile netsim.Profile) (Stack, error) {
	srv := nfs.NewServer(fs, nfs.ServerConfig{})
	st := &nfsStack{srv: srv, dirs: make(map[string]nfs.FH), files: make(map[string]nfs.FH)}
	auth := func() sunrpc.OpaqueAuth { return sunrpc.UnixAuth(0, []uint32{0}) }
	switch transport {
	case "udp":
		st.name = "NFS 3 (UDP)"
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.pc = pc
		rpc := sunrpc.NewServer()
		rpc.Register(nfs.Program, nfs.Version, srv.Handler())
		go rpc.ServePacket(netsim.ShapePacketConn(pc, profile)) //nolint:errcheck
		conn, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			return nil, err
		}
		shaped := netsim.Shape(conn, profile)
		st.cl = nfs.Dial(sunrpc.NewDatagramConn(shaped), nfs.ClientConfig{Auth: auth})
	case "tcp":
		st.name = "NFS 3 (TCP)"
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.ln = l
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				srv.ServeConn(netsim.Shape(c, profile))
			}
		}()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		st.cl = nfs.Dial(netsim.Shape(conn, profile), nfs.ClientConfig{Auth: auth})
	default:
		return nil, fmt.Errorf("bench: unknown transport %q", transport)
	}
	root, _, err := st.cl.MountRoot()
	if err != nil {
		st.Close()
		return nil, err
	}
	st.root = root
	return st, nil
}

func (s *nfsStack) Name() string { return s.name }

// walk resolves a directory path with LOOKUP RPCs, caching directory
// handles like a kernel dnlc would.
func (s *nfsStack) walk(path string) (nfs.FH, error) {
	if path == "" {
		return s.root, nil
	}
	if fh, ok := s.dirs[path]; ok {
		return fh, nil
	}
	dir, name := splitDirFile(path)
	parent, err := s.walk(dir)
	if err != nil {
		return nil, err
	}
	fh, _, err := s.cl.Lookup(parent, name)
	if err != nil {
		return nil, err
	}
	s.dirs[path] = fh
	return fh, nil
}

// lookupFile resolves a file, caching handles like the kernel's name
// cache (dnlc) so repeated opens cost one GETATTR, not a LOOKUP storm.
// Mutating operations drop the affected entries.
func (s *nfsStack) lookupFile(path string) (nfs.FH, error) {
	if fh, ok := s.files[path]; ok {
		return fh, nil
	}
	dir, name := splitDirFile(path)
	parent, err := s.walk(dir)
	if err != nil {
		return nil, err
	}
	fh, _, err := s.cl.Lookup(parent, name)
	if err != nil {
		return nil, err
	}
	s.files[path] = fh
	return fh, nil
}

func (s *nfsStack) Mkdir(path string) error {
	dir, name := splitDirFile(path)
	parent, err := s.walk(dir)
	if err != nil {
		return err
	}
	fh, _, err := s.cl.Mkdir(parent, name, 0o755)
	if err == nil {
		s.dirs[path] = fh
	}
	return err
}

func (s *nfsStack) WriteFile(path string, data []byte) error {
	f, err := s.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return err
	}
	return f.Sync()
}

func (s *nfsStack) ReadFile(path string) ([]byte, error) {
	fh, err := s.lookupFile(path)
	if err != nil {
		return nil, err
	}
	// Close-to-open consistency: a kernel NFS client revalidates
	// attributes on every open, even with the handle cached.
	if _, err := s.cl.GetAttr(fh); err != nil {
		return nil, err
	}
	var out []byte
	for {
		data, eof, err := s.cl.Read(fh, uint64(len(out)), 8192)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
		if eof || len(data) == 0 {
			return out, nil
		}
	}
}

func (s *nfsStack) Stat(path string) error {
	fh, err := s.lookupFile(path)
	if err != nil {
		return err
	}
	_, err = s.cl.GetAttr(fh)
	return err
}

func (s *nfsStack) StatMtime(path string) (int64, error) {
	fh, err := s.lookupFile(path)
	if err != nil {
		return 0, err
	}
	attr, err := s.cl.GetAttr(fh)
	if err != nil {
		return 0, err
	}
	return int64(attr.Mtime), nil
}

func (s *nfsStack) ReadDir(path string) error {
	fh, err := s.walk(path)
	if err != nil {
		return err
	}
	_, _, err = s.cl.ReadDir(fh, 0, 1024)
	return err
}

func (s *nfsStack) Remove(path string) error {
	dir, name := splitDirFile(path)
	parent, err := s.walk(dir)
	if err != nil {
		return err
	}
	delete(s.files, path)
	return s.cl.Remove(parent, name)
}

func (s *nfsStack) ChownFail(path string) error {
	if s.chownFH == nil {
		fh, err := s.lookupFile(path)
		if err != nil {
			return err
		}
		s.chownFH = fh
		s.nonOwner = s.cl.WithAuth("nonowner", func() sunrpc.OpaqueAuth {
			return sunrpc.UnixAuth(40000, []uint32{40000})
		})
	}
	uid := uint32(12345)
	if _, err := s.nonOwner.SetAttr(nfs.SetAttrArgs{FH: s.chownFH, SetUID: &uid}); err == nil {
		return fmt.Errorf("bench: unauthorized chown unexpectedly succeeded")
	}
	return nil
}

type nfsFile struct {
	cl *nfs.Client
	fh nfs.FH
}

func (s *nfsStack) Open(path string) (StackFile, error) {
	fh, err := s.lookupFile(path)
	if err != nil {
		return nil, err
	}
	return &nfsFile{cl: s.cl, fh: fh}, nil
}

func (s *nfsStack) Create(path string) (StackFile, error) {
	dir, name := splitDirFile(path)
	parent, err := s.walk(dir)
	if err != nil {
		return nil, err
	}
	fh, _, err := s.cl.Create(parent, name, 0o644, false)
	if err != nil {
		return nil, err
	}
	s.files[path] = fh
	return &nfsFile{cl: s.cl, fh: fh}, nil
}

func (f *nfsFile) ReadAt(p []byte, off uint64) (int, error) {
	data, _, err := f.cl.Read(f.fh, off, uint32(len(p)))
	if err != nil {
		return 0, err
	}
	return copy(p, data), nil
}

func (f *nfsFile) WriteAt(p []byte, off uint64) (int, error) {
	n, err := f.cl.Write(f.fh, off, p, nfs.Unstable)
	return int(n), err
}

func (f *nfsFile) Sync() error { _, err := f.cl.Commit(f.fh); return err }

func (s *nfsStack) Truncate(path string, size uint64) error {
	fh, err := s.lookupFile(path)
	if err != nil {
		return err
	}
	_, err = s.cl.SetAttr(nfs.SetAttrArgs{FH: fh, SetSize: &size})
	return err
}

func (s *nfsStack) Stats() nfs.Stats { return s.cl.Stats() }

func (s *nfsStack) ServerStats() (nfs.ServerStats, bool) {
	return s.srv.StatsSnapshot(), true
}

func (s *nfsStack) Close() {
	if s.cl != nil {
		s.cl.Close()
	}
	if s.ln != nil {
		s.ln.Close()
	}
	if s.pc != nil {
		s.pc.Close()
	}
}

// ---------------------------------------------------------------------
// SFS: the full stack — client daemons, agents, secure channel, server
// master — as a lab world whose every connection is shaped by netsim.

// The configuration the paper measured (§4): the attribute-lease and
// access-cache extensions on both ends, and a client that caches no
// file data. Figures state an ablation as a change to one of these,
// in the daemons' own vocabulary.
var (
	paperClient = client.Config{EnhancedCaching: true, DataCacheBytes: -1}
	paperServed = server.ServedConfig{LeaseMS: 60000}
)

// newEraFS returns a substrate file system on the evaluation machines'
// disk: the in-memory store behind netsim's IBM 18ES model. The store
// is returned too, for its charge counters.
func newEraFS() (*vfs.FS, *netsim.DiskStore) {
	ms := memstore.New()
	disk := netsim.NewDiskStore(ms, ms, netsim.NewDisk())
	fs, err := vfs.NewWithStores(disk, disk)
	if err != nil {
		panic("bench: in-memory store cannot fail: " + err.Error())
	}
	return fs, disk
}

// SFSCluster is one SFS server with N independent client daemons, each
// over its own secure channel on the era network.
type SFSCluster struct {
	Clients []*client.Client
	world   *lab.World
	served  *lab.Served
}

// NewSFSCluster serves fs under scfg from a fresh world and connects n
// client daemons configured by ccfg. The netsim profile follows
// scfg.NoEncryption on both directions of every connection. The
// benchmark user authenticates as root through one agent every client
// shares; a second, keyless agent exercises unauthorized operations.
func NewSFSCluster(fs *vfs.FS, n int, ccfg client.Config, scfg server.ServedConfig) (*SFSCluster, error) {
	profile := netsim.SFS(!scfg.NoEncryption)
	world, err := lab.NewWorldOver("bench-sfs", func(c net.Conn) net.Conn { return netsim.Shape(c, profile) })
	if err != nil {
		return nil, err
	}
	c := &SFSCluster{world: world}
	scfg.Location, scfg.FS = "bench.example.com", fs
	if c.served, err = world.ServeFSOn(scfg); err != nil {
		c.Close()
		return nil, err
	}
	var user *agent.Agent
	for i := 0; i < n; i++ {
		cl, err := world.NewClient(ccfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		if user == nil {
			if user, err = world.NewUser(cl, c.served, "bench", 0, ""); err != nil {
				c.Close()
				return nil, err
			}
		} else {
			cl.RegisterAgent("bench", user)
		}
		world.NewAnonymousUser(cl, "nonowner")
		c.Clients = append(c.Clients, cl)
	}
	return c, nil
}

// Base returns the self-certifying pathname of the served root.
func (c *SFSCluster) Base() string { return c.served.Path.String() }

// ServerStats snapshots the server-side NFS counters (which carry the
// vfs lock-shard and lease-stripe contention numbers too).
func (c *SFSCluster) ServerStats() (nfs.ServerStats, bool) {
	return c.world.Server.NFSStats(c.served.Location)
}

// Close tears the cluster down: the listener and every client.
func (c *SFSCluster) Close() { c.world.Close() }

type sfsStack struct {
	*SFSCluster
	name      string
	cl        *client.Client
	base      string
	chownFile *client.File
}

// NewSFS builds the full SFS stack over fs: one server, one client.
func NewSFS(fs *vfs.FS, ccfg client.Config, scfg server.ServedConfig) (Stack, error) {
	c, err := NewSFSCluster(fs, 1, ccfg, scfg)
	if err != nil {
		return nil, err
	}
	name := "SFS"
	switch {
	case scfg.NoEncryption:
		name = "SFS w/o encryption"
	case !ccfg.EnhancedCaching:
		name = "SFS w/o enhanced caching"
	}
	return &sfsStack{SFSCluster: c, name: name, cl: c.Clients[0], base: c.Base()}, nil
}

func (s *sfsStack) Name() string           { return s.name }
func (s *sfsStack) abs(path string) string { return s.base + "/" + path }

func (s *sfsStack) Mkdir(path string) error {
	return s.cl.Mkdir("bench", s.abs(path), 0o755)
}

func (s *sfsStack) WriteFile(path string, data []byte) error {
	f, err := s.cl.Create("bench", s.abs(path), 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return err
	}
	return f.Sync()
}

func (s *sfsStack) ReadFile(path string) ([]byte, error) {
	return s.cl.ReadFile("bench", s.abs(path))
}

func (s *sfsStack) Stat(path string) error {
	_, err := s.cl.Stat("bench", s.abs(path))
	return err
}

func (s *sfsStack) StatMtime(path string) (int64, error) {
	attr, err := s.cl.Stat("bench", s.abs(path))
	if err != nil {
		return 0, err
	}
	return int64(attr.Mtime), nil
}

func (s *sfsStack) ReadDir(path string) error {
	_, err := s.cl.ReadDir("bench", s.abs(path))
	return err
}

func (s *sfsStack) Remove(path string) error {
	return s.cl.Remove("bench", s.abs(path))
}

func (s *sfsStack) ChownFail(path string) error {
	// "nonowner" is a keyless agent: its accesses carry the
	// anonymous authentication number, so the fchown of a
	// root-owned file fails at the server after a full secure round
	// trip. The open handle is cached: steady state is one RPC.
	if s.chownFile == nil {
		f, err := s.cl.Open("nonowner", s.abs(path))
		if err != nil {
			return err
		}
		s.chownFile = f
	}
	if err := s.chownFile.Chown(12345); err == nil {
		return fmt.Errorf("bench: unauthorized chown unexpectedly succeeded")
	}
	return nil
}

func (s *sfsStack) Truncate(path string, size uint64) error {
	return s.cl.Truncate("bench", s.abs(path), size)
}

// *client.File is a StackFile as it stands.

func (s *sfsStack) Open(path string) (StackFile, error) {
	f, err := s.cl.Open("bench", s.abs(path))
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (s *sfsStack) Create(path string) (StackFile, error) {
	f, err := s.cl.Create("bench", s.abs(path), 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (s *sfsStack) Stats() nfs.Stats {
	st, err := s.cl.Stats("bench", s.base)
	if err != nil {
		return nfs.Stats{}
	}
	return st
}
