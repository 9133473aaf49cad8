package sfsro

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/secchan"
	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// Read-only protocol procedures.
const (
	ProcGetRoot = 1
	ProcGetData = 2
)

type getDataArgs struct {
	Hash Hash
}

type getDataRes struct {
	Found bool
	Blob  []byte
}

// Replica serves a read-only database. It holds no private key: it
// can run on an entirely untrusted machine, because clients verify
// the signed root and every blob hash themselves.
type Replica struct {
	mu   sync.RWMutex
	db   *DB
	path core.Path
	logf func(format string, args ...interface{})
}

// SetLogf installs a log.Printf-shaped hook for single-line
// structured accept/close connection logging (nil disables it, the
// default — what sfsrodb serve -quiet restores).
func (r *Replica) SetLogf(f func(format string, args ...interface{})) {
	r.mu.Lock()
	r.logf = f
	r.mu.Unlock()
}

func (r *Replica) logConn(format string, args ...interface{}) {
	r.mu.RLock()
	f := r.logf
	r.mu.RUnlock()
	if f != nil {
		f(format, args...)
	}
}

// meteredConn counts bytes both ways and fires a one-shot hook on
// close, feeding the replica's close log line.
type meteredConn struct {
	net.Conn
	in, out atomic.Uint64
	once    sync.Once
	onClose func(in, out uint64)
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

func (c *meteredConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		if c.onClose != nil {
			c.onClose(c.in.Load(), c.out.Load())
		}
	})
	return err
}

// NewReplica wraps a database. The replica serves exactly the
// pathname the database's signed root names.
func NewReplica(db *DB) (*Replica, error) {
	p := core.MakePath(db.Signed.Root.Location, db.Signed.Key)
	return &Replica{db: db, path: p}, nil
}

// Path returns the self-certifying pathname the replica serves.
func (r *Replica) Path() core.Path {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.path
}

// handler serves the RO RPC program.
func (r *Replica) handler() sunrpc.Handler {
	return func(proc uint32, _ sunrpc.OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		switch proc {
		case ProcGetRoot:
			r.mu.RLock()
			defer r.mu.RUnlock()
			return r.db.Signed, nil
		case ProcGetData:
			var a getDataArgs
			if err := args.Decode(&a); err != nil {
				return nil, sunrpc.ErrGarbageArgs
			}
			r.mu.RLock()
			blob, ok := r.db.Blobs[a.Hash]
			r.mu.RUnlock()
			if !ok {
				return getDataRes{Found: false, Blob: []byte{}}, nil
			}
			return getDataRes{Found: true, Blob: blob}, nil
		default:
			return nil, sunrpc.ErrProcUnavail
		}
	}
}

// HandleConn runs the read-only dialect on one raw connection that
// has already had its connect request read (server-master extension
// entry point).
func (r *Replica) HandleConn(conn net.Conn, req *secchan.ConnectRequest) {
	start := time.Now()
	peer := "?"
	if a := conn.RemoteAddr(); a != nil {
		peer = a.String()
	}
	r.logConn("accept peer=%s dialect=file-ro location=%s", peer, req.Location)
	mc := &meteredConn{Conn: conn}
	mc.onClose = func(in, out uint64) {
		r.logConn("close peer=%s dialect=file-ro dur=%s in=%d out=%d",
			peer, time.Since(start).Round(time.Microsecond), in, out)
	}
	conn = mc
	r.mu.RLock()
	path := r.path
	key := r.db.Signed.Key
	r.mu.RUnlock()
	var hostID core.HostID
	copy(hostID[:], req.HostID[:])
	if hostID != path.HostID || req.Location != path.Location {
		secchan.RejectNoSuchFS(conn) //nolint:errcheck
		conn.Close()
		return
	}
	if err := secchan.AcceptPlain(conn, key); err != nil {
		conn.Close()
		return
	}
	rpc := sunrpc.NewServer()
	rpc.Register(sfsrpc.ROProgram, sfsrpc.Version, r.handler())
	go rpc.ServeConn(conn) //nolint:errcheck // closes conn, firing the close log even when the peer vanishes
}

// ListenAndServe runs a standalone replica (the untrusted-mirror
// deployment) on l.
func (r *Replica) ListenAndServe(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func(conn net.Conn) {
			req, err := secchan.ReadConnect(conn)
			if err != nil {
				conn.Close()
				return
			}
			r.HandleConn(conn, req)
		}(conn)
	}
}

// Client reads a read-only file system, verifying everything.
type Client struct {
	path core.Path
	rpc  *sunrpc.Client
	root *Root
	// minVersion guards against rollback across reconnects.
	minVersion uint64
	now        func() time.Time
}

// Errors.
var (
	ErrVerify   = errors.New("sfsro: verification failed")
	ErrNotFound = errors.New("sfsro: no such file")
	ErrRollback = errors.New("sfsro: server presented an older version")
)

// DialClient connects to a replica over conn, fetches the signed
// root, and verifies it against the self-certifying pathname. A
// minVersion of 0 accepts any version; pass the last seen version to
// detect rollback.
func DialClient(conn net.Conn, path core.Path, minVersion uint64) (*Client, error) {
	if _, err := secchan.ClientConnectPlain(conn, secchan.ServiceFileRO, path.Root()); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{path: path.Root(), rpc: sunrpc.NewClient(conn), minVersion: minVersion, now: time.Now}
	if err := c.refreshRoot(); err != nil {
		c.rpc.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// Version returns the verified database version.
func (c *Client) Version() uint64 { return c.root.Version }

func (c *Client) refreshRoot() error {
	var sr SignedRoot
	if err := c.rpc.Call(sfsrpc.ROProgram, sfsrpc.Version, ProcGetRoot, sunrpc.NoAuth(), nil, &sr); err != nil {
		return err
	}
	root, err := VerifyRoot(&sr, c.path, c.now())
	if err != nil {
		return err
	}
	if root.Version < c.minVersion {
		return ErrRollback
	}
	c.root = root
	return nil
}

// fetch retrieves and verifies one blob.
func (c *Client) fetch(kind string, h Hash) ([]byte, error) {
	var res getDataRes
	if err := c.rpc.Call(sfsrpc.ROProgram, sfsrpc.Version, ProcGetData, sunrpc.NoAuth(), getDataArgs{Hash: h}, &res); err != nil {
		return nil, err
	}
	if !res.Found {
		return nil, ErrNotFound
	}
	if hashOf(kind, res.Blob) != h {
		return nil, ErrVerify
	}
	return res.Blob, nil
}

func (c *Client) inode(h Hash) (*Inode, error) {
	blob, err := c.fetch(kindInode, h)
	if err != nil {
		return nil, err
	}
	var ino Inode
	if err := xdr.Unmarshal(blob, &ino); err != nil {
		return nil, ErrVerify
	}
	return &ino, nil
}

func (c *Client) dir(ino *Inode) (*Dir, error) {
	if ino.Type != TypeDir || len(ino.Blocks) != 1 {
		return nil, ErrVerify
	}
	blob, err := c.fetch(kindDir, ino.Blocks[0])
	if err != nil {
		return nil, err
	}
	var d Dir
	if err := xdr.Unmarshal(blob, &d); err != nil {
		return nil, ErrVerify
	}
	return &d, nil
}

// lookup walks a slash-separated path from the root to an inode.
func (c *Client) lookup(path string) (*Inode, error) {
	ino, err := c.inode(c.root.RootDir)
	if err != nil {
		return nil, err
	}
	for _, comp := range splitPath(path) {
		d, err := c.dir(ino)
		if err != nil {
			return nil, err
		}
		var next *Hash
		for i := range d.Entries {
			if d.Entries[i].Name == comp {
				next = &d.Entries[i].Inode
				break
			}
		}
		if next == nil {
			return nil, ErrNotFound
		}
		ino, err = c.inode(*next)
		if err != nil {
			return nil, err
		}
	}
	return ino, nil
}

func splitPath(p string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			if s := p[start:i]; s != "" && s != "." {
				out = append(out, s)
			}
			start = i + 1
		}
	}
	return out
}

// Stat returns the inode at path.
func (c *Client) Stat(path string) (*Inode, error) { return c.lookup(path) }

// Done is closed when the replica connection fails.
func (c *Client) Done() <-chan struct{} { return c.rpc.Done() }

// RootHash returns the verified root directory inode hash.
func (c *Client) RootHash() Hash { return c.root.RootDir }

// InodeByHash fetches and verifies the inode named by h. The hash is
// the handle currency of read-only mounts.
func (c *Client) InodeByHash(h Hash) (*Inode, error) { return c.inode(h) }

// DirEntries fetches and verifies the directory blob of a directory
// inode.
func (c *Client) DirEntries(ino *Inode) ([]DirEntry, error) {
	d, err := c.dir(ino)
	if err != nil {
		return nil, err
	}
	return d.Entries, nil
}

// ReadInodeAt reads up to count bytes of a regular file's verified
// data starting at off.
func (c *Client) ReadInodeAt(ino *Inode, off uint64, count uint32) ([]byte, bool, error) {
	if ino.Type != TypeReg {
		return nil, false, ErrNotFound
	}
	if off >= ino.Size {
		return []byte{}, true, nil
	}
	end := off + uint64(count)
	if end > ino.Size {
		end = ino.Size
	}
	out := make([]byte, 0, end-off)
	for i := int(off / BlockSize); i < len(ino.Blocks) && uint64(i)*BlockSize < end; i++ {
		blob, err := c.fetch(kindData, ino.Blocks[i])
		if err != nil {
			return nil, false, err
		}
		blockStart := uint64(i) * BlockSize
		from := uint64(0)
		if off > blockStart {
			from = off - blockStart
		}
		to := uint64(len(blob))
		if blockStart+to > end {
			to = end - blockStart
		}
		if from > to {
			break
		}
		out = append(out, blob[from:to]...)
	}
	return out, end == ino.Size, nil
}

// ReadFile returns the verified contents of the file at path.
func (c *Client) ReadFile(path string) ([]byte, error) {
	ino, err := c.lookup(path)
	if err != nil {
		return nil, err
	}
	if ino.Type != TypeReg {
		return nil, ErrNotFound
	}
	out := make([]byte, 0, ino.Size)
	for _, bh := range ino.Blocks {
		blob, err := c.fetch(kindData, bh)
		if err != nil {
			return nil, err
		}
		out = append(out, blob...)
	}
	if uint64(len(out)) != ino.Size {
		return nil, ErrVerify
	}
	return out, nil
}

// ReadLink returns the target of the symbolic link at path.
func (c *Client) ReadLink(path string) (string, error) {
	ino, err := c.lookup(path)
	if err != nil {
		return "", err
	}
	if ino.Type != TypeSymlink {
		return "", ErrNotFound
	}
	return ino.Target, nil
}

// ReadDir lists the directory at path.
func (c *Client) ReadDir(path string) ([]DirEntry, error) {
	ino, err := c.lookup(path)
	if err != nil {
		return nil, err
	}
	d, err := c.dir(ino)
	if err != nil {
		return nil, err
	}
	return d.Entries, nil
}
