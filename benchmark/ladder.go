package main

// The layer ladder: each layer's public functions called directly,
// from outside, with the two messages the workloads produce — a
// GETATTR-sized record and an 8 KiB READ reply / WRITE call. Fixed
// iteration counts; each figure is the median of five repetitions.
// The rungs are the same in every traced run: they describe the code,
// not the workload.

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/arc4"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/crypto/sha1mac"
	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/wal"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ladderReps is how many times each rung repeats; the median counts.
const ladderReps = 5

// ladder runs rungs and collects their figures.
type ladder struct {
	out   metricSet
	reps  int
	smoke bool // one iteration per rung: only checks the rungs run
	dir   string
	err   error
}

// rung times fn and returns the median ns per call and the mean
// allocations per call. iters is fixed per rung so two commits do the
// same work.
func (l *ladder) rung(iters int, fn func() error) (ns, allocs float64) {
	if l.err != nil {
		return 0, 0
	}
	if l.smoke {
		iters = 1
	}
	var ms0, ms1 runtime.MemStats
	per := make([]float64, 0, l.reps)
	runtime.ReadMemStats(&ms0)
	for r := 0; r < l.reps; r++ {
		t := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				l.err = err
				return 0, 0
			}
		}
		per = append(per, float64(time.Since(t))/float64(iters))
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(iters*l.reps)
}

func (l *ladder) fail(err error) {
	if l.err == nil && err != nil {
		l.err = err
	}
}

// runLadder measures every rung. dir holds the WAL and disk store the
// storage rungs write.
func runLadder(dir string, smoke bool) (metricSet, error) {
	l := &ladder{out: metricSet{}, reps: ladderReps, smoke: smoke, dir: dir}
	if smoke {
		l.reps = 1
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, step := range []func(){l.xdr, l.sunrpc, l.crypto, l.secchan, l.nfs, l.vfs, l.wal, l.diskstore, l.endToEnd} {
		step()
		if l.err != nil {
			return nil, fmt.Errorf("ladder: %w", l.err)
		}
	}
	return l.out, nil
}

var (
	ladderAttr = nfs.Fattr{Type: nfs.TypeReg, Mode: 0o644, Nlink: 1, Size: blockSize, FileID: 42, LeaseMS: leaseMS}
	ladderKey  = bytes.Repeat([]byte{0x5a}, sha1mac.KeySize)
)

func ladderPayload() []byte {
	p := make([]byte, blockSize)
	fillBlock(p, 7, 7, 7, 7)
	return p
}

func (l *ladder) xdr() {
	small := nfs.AttrRes{Attr: &ladderAttr}
	big := nfs.ReadRes{Attr: &ladderAttr, Count: blockSize, Data: ladderPayload()}
	smallWire, bigWire := xdr.MustMarshal(small), xdr.MustMarshal(big)

	encode := func(v interface{}, gather bool) func() error {
		return func() error {
			e := xdr.GetEncoder()
			defer xdr.PutEncoder(e)
			e.SetGather(gather)
			if err := e.Encode(v); err != nil {
				return err
			}
			_ = e.Segments()
			return nil
		}
	}
	encNS, encAllocs := l.rung(10000, encode(small, false))
	decNS, decAllocs := l.rung(10000, func() error {
		var out nfs.AttrRes
		return xdr.Unmarshal(smallWire, &out)
	})
	l.out.put("xdr.encode_small_ns", "ns", encNS)
	l.out.put("xdr.decode_small_ns", "ns", decNS)
	l.out.put("xdr.allocs_small", "count", encAllocs+decAllocs)
	// The wire path gathers the payload on encode and borrows it on
	// decode, so neither side copies the 8 KiB.
	ns, _ := l.rung(10000, encode(big, true))
	l.out.put("xdr.encode_8k_ns", "ns", ns)
	ns, _ = l.rung(10000, func() error {
		d := xdr.NewDecoder(bigWire)
		d.SetBorrow(true)
		var out nfs.ReadRes
		return d.Decode(&out)
	})
	l.out.put("xdr.decode_8k_ns", "ns", ns)
}

func (l *ladder) sunrpc() {
	payload := ladderPayload()
	var buf bytes.Buffer
	ns, _ := l.rung(4000, func() error {
		buf.Reset()
		if err := sunrpc.WriteRecord(&buf, payload); err != nil {
			return err
		}
		_, err := sunrpc.ReadRecord(&buf)
		return err
	})
	l.out.put("sunrpc.record_8k_ns", "ns", ns)

	srv := sunrpc.NewServer()
	srv.Register(7, 1, func(uint32, sunrpc.OpaqueAuth, *xdr.Decoder) (interface{}, error) {
		return struct{}{}, nil
	})
	c1, c2 := net.Pipe()
	go srv.ServeConn(c2) //nolint:errcheck // ends when the client closes the pipe
	cl := sunrpc.NewClient(c1)
	defer cl.Close()
	ns, allocs := l.rung(1000, func() error {
		return cl.Call(7, 1, 0, sunrpc.NoAuth(), nil, &struct{}{})
	})
	l.out.put("sunrpc.null_roundtrip_us", "us", ns/1e3)
	l.out.put("sunrpc.allocs_null", "count", allocs)
}

func (l *ladder) crypto() {
	src, dst := ladderPayload(), make([]byte, blockSize)
	c, err := arc4.New(ladderKey)
	if err != nil {
		l.fail(err)
		return
	}
	ns, _ := l.rung(500, func() error { c.XORKeyStream(dst, src); return nil })
	l.out.put("crypto.arc4_ns_per_kb", "ns", ns/(blockSize/1024))
	ns, _ = l.rung(1000, func() error { _ = sha1mac.Sum(ladderKey, src); return nil })
	l.out.put("crypto.sha1mac_ns_per_kb", "ns", ns/(blockSize/1024))

	rng := prng.NewSeeded([]byte("sfs-benchmark-ladder"))
	key, err := rabin.GenerateKey(rng, keyBits)
	if err != nil {
		l.fail(err)
		return
	}
	msg := sha1.Sum(src)
	ct, err := key.PublicKey.Encrypt(rng, msg[:])
	if err != nil {
		l.fail(err)
		return
	}
	ns, _ = l.rung(50, func() error { _, err := key.Decrypt(ct); return err })
	l.out.put("crypto.rabin_decrypt_us", "us", ns/1e3)
	var sig *rabin.Signature
	ns, _ = l.rung(25, func() (err error) { sig, err = key.Sign(rng, msg[:]); return err })
	l.out.put("crypto.rabin_sign_us", "us", ns/1e3)
	ns, _ = l.rung(2000, func() error { return key.PublicKey.Verify(msg[:], sig) })
	l.out.put("crypto.rabin_verify_us", "us", ns/1e3)
}

// halfPipe is one direction of an in-memory transport with a buffer:
// unlike net.Pipe a Write returns at once, so one goroutine can seal
// on one end and open on the other.
type halfPipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    bytes.Buffer
	closed bool
}

func newHalfPipe() *halfPipe {
	h := &halfPipe{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *halfPipe) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cond.Broadcast()
	return h.buf.Write(p)
}

func (h *halfPipe) Read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.buf.Len() == 0 {
		if h.closed {
			return 0, io.EOF
		}
		h.cond.Wait()
	}
	return h.buf.Read(p)
}

func (h *halfPipe) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// duplex is one end of a buffered in-memory connection.
type duplex struct{ in, out *halfPipe }

func (d duplex) Read(p []byte) (int, error)  { return d.in.Read(p) }
func (d duplex) Write(p []byte) (int, error) { return d.out.Write(p) }
func (d duplex) Close() error                { d.in.close(); d.out.close(); return nil }

func newDuplexPair() (duplex, duplex) {
	a, b := newHalfPipe(), newHalfPipe()
	return duplex{in: a, out: b}, duplex{in: b, out: a}
}

// handshake runs one full key negotiation over conns and returns both
// channel ends. cache may be nil.
func handshake(c1, c2 io.ReadWriteCloser, path core.Path, sk, tk *rabin.PrivateKey, srng, crng *prng.Generator, cache *secchan.ResumeCache) (cli, srv *secchan.Conn, info *secchan.Info, err error) {
	done := make(chan error, 1)
	go func() {
		req, err := secchan.ReadConnect(c2)
		if err == nil {
			srv, _, err = secchan.ServerHandshakeSession(c2, req, sk, srng, cache)
		}
		done <- err
	}()
	cli, info, _, err = secchan.ClientHandshake(c1, secchan.ServiceFile, path, tk, crng)
	if serr := <-done; err == nil {
		err = serr
	}
	return cli, srv, info, err
}

func (l *ladder) secchan() {
	srng := prng.NewSeeded([]byte("sfs-benchmark-ladder-server"))
	crng := prng.NewSeeded([]byte("sfs-benchmark-ladder-client"))
	sk, err := rabin.GenerateKey(srng, keyBits)
	if err != nil {
		l.fail(err)
		return
	}
	tk, err := rabin.GenerateKey(crng, 768) // client.Config's TempKeyBits default
	if err != nil {
		l.fail(err)
		return
	}
	path := core.MakePath(location, sk.PublicKey.Bytes())

	ns, allocs := l.rung(5, func() error {
		c1, c2 := net.Pipe()
		defer c1.Close()
		defer c2.Close()
		_, _, _, err := handshake(c1, c2, path, sk, tk, srng, crng, nil)
		return err
	})
	l.out.put("secchan.hs_full_us", "us", ns/1e3)
	l.out.put("secchan.allocs_hs_full", "count", allocs)

	// Resumption: one full negotiation mints the first ticket; each
	// resume mints the next.
	cache := secchan.NewResumeCache(1<<20, time.Hour)
	c1, c2 := net.Pipe()
	_, _, info, err := handshake(c1, c2, path, sk, tk, srng, crng, cache)
	c1.Close()
	c2.Close()
	if err != nil {
		l.fail(err)
		return
	}
	ticket := info.Ticket
	ns, _ = l.rung(200, func() error {
		r1, r2 := net.Pipe()
		defer r1.Close()
		defer r2.Close()
		done := make(chan error, 1)
		go func() {
			hello, err := secchan.ReadHello(r2)
			if err == nil {
				_, _, _, err = secchan.AcceptResume(r2, hello.Resume, cache, srng)
			}
			done <- err
		}()
		_, ninfo, _, err := secchan.ClientHandshakeResume(r1, secchan.ServiceFile, path, tk, crng, ticket)
		if serr := <-done; err == nil {
			err = serr
		}
		if err == nil {
			ticket = ninfo.Ticket
		}
		return err
	})
	l.out.put("secchan.hs_resume_us", "us", ns/1e3)

	// Seal on the client end, open on the server end, as a WRITE call
	// travels: header segment plus borrowed payload.
	d1, d2 := newDuplexPair()
	cli, srv, _, err := handshake(d1, d2, path, sk, tk, srng, crng, nil)
	if err != nil {
		l.fail(err)
		return
	}
	defer cli.Close()
	sealOpen := func(segs [][]byte) func() error {
		n := 0
		for _, s := range segs {
			n += len(s)
		}
		out := make([]byte, n)
		return func() error {
			if _, _, err := cli.WriteSegments(segs); err != nil {
				return err
			}
			_, err := io.ReadFull(srv, out)
			return err
		}
	}
	hdr := xdr.MustMarshal(nfs.AttrRes{Attr: &ladderAttr})
	ns, _ = l.rung(5000, sealOpen([][]byte{hdr}))
	l.out.put("secchan.seal_open_small_ns", "ns", ns)
	ns, allocs = l.rung(200, sealOpen([][]byte{hdr, ladderPayload()}))
	l.out.put("secchan.seal_open_8k_ns", "ns", ns)
	l.out.put("secchan.allocs_8k", "count", allocs)
}

// nfs measures the NFS client and server joined by a pipe: xdr,
// sunrpc, the NFS handlers and a mem vfs, with no secure channel and
// no TCP.
func (l *ladder) nfs() {
	unix := func() sunrpc.OpaqueAuth { return sunrpc.UnixAuth(0, []uint32{0}) }
	dial := func(srvCfg nfs.ServerConfig, clCfg nfs.ClientConfig) (*nfs.Client, nfs.FH, error) {
		fs := vfs.New()
		if err := preload(fs, "f", 7, 0, 4); err != nil {
			return nil, nil, err
		}
		c1, c2 := net.Pipe()
		nfs.NewServer(fs, srvCfg).ServeConn(c2)
		clCfg.Auth = unix
		cl := nfs.Dial(c1, clCfg)
		root, _, err := cl.MountRoot()
		if err != nil {
			cl.Close()
			return nil, nil, err
		}
		fh, _, err := cl.Lookup(root, "f")
		if err != nil {
			cl.Close()
		}
		return cl, fh, err
	}
	cl, fh, err := dial(nfs.ServerConfig{}, nfs.ClientConfig{})
	if err != nil {
		l.fail(err)
		return
	}
	defer cl.Close()
	ns, _ := l.rung(400, func() error { _, err := cl.GetAttr(fh); return err })
	l.out.put("nfs.getattr_us", "us", ns/1e3)
	ns, _ = l.rung(400, func() error { _, _, err := cl.Read(fh, 0, blockSize); return err })
	l.out.put("nfs.read_8k_us", "us", ns/1e3)
	payload := ladderPayload()
	ns, _ = l.rung(400, func() error { _, err := cl.Write(fh, 0, payload, nfs.Unstable); return err })
	l.out.put("nfs.write_8k_us", "us", ns/1e3)

	// The data cache's hit path: leases on, block already cached.
	cached, cfh, err := dial(nfs.ServerConfig{LeaseMS: leaseMS, Callbacks: true}, nfs.ClientConfig{UseLeases: true, AccessCache: true})
	if err != nil {
		l.fail(err)
		return
	}
	defer cached.Close()
	ns, _ = l.rung(50000, func() error { _, _, err := cached.Read(cfh, 0, blockSize); return err })
	l.out.put("nfs.cache_hit_ns", "ns", ns)
}

func (l *ladder) vfs() {
	fs := vfs.New()
	if err := preload(fs, "f", 7, 0, 4); err != nil {
		l.fail(err)
		return
	}
	id, _, err := fs.Lookup(rootCred, fs.Root(), "f")
	if err != nil {
		l.fail(err)
		return
	}
	ns, _ := l.rung(100000, func() error { _, err := fs.GetAttr(id); return err })
	l.out.put("vfs.getattr_ns", "ns", ns)
	ns, _ = l.rung(50000, func() error { _, _, err := fs.Lookup(rootCred, fs.Root(), "f"); return err })
	l.out.put("vfs.lookup_ns", "ns", ns)
	n := 0
	ns, _ = l.rung(2000, func() error {
		n++
		_, _, err := fs.Create(rootCred, fs.Root(), fmt.Sprintf("c%d", n), 0o644, true)
		return err
	})
	l.out.put("vfs.create_us", "us", ns/1e3)
	ns, _ = l.rung(2000, func() error { _, _, err := fs.Read(rootCred, id, 0, blockSize); return err })
	l.out.put("vfs.read_8k_ns", "ns", ns)
	payload := ladderPayload()
	ns, _ = l.rung(20000, func() error { _, err := fs.Write(rootCred, id, 0, payload, false); return err })
	l.out.put("vfs.write_8k_ns", "ns", ns)
	// The mem store's shadow path: an unstable write, then COMMIT.
	ns, _ = l.rung(1000, func() error {
		if _, err := fs.Write(rootCred, id, 0, payload, false); err != nil {
			return err
		}
		return fs.Commit(id)
	})
	l.out.put("memstore.write_commit_8k_us", "us", ns/1e3)
}

func (l *ladder) wal() {
	w, err := wal.Open(filepath.Join(l.dir, "ladder.wal"), wal.Options{}, func(uint64, []byte) error { return nil })
	if err != nil {
		l.fail(err)
		return
	}
	defer w.Close()
	payload := ladderPayload()
	fill := func(dst []byte) { copy(dst, payload) }
	ns, allocs := l.rung(4000, func() error { return w.Append(len(payload), fill) })
	l.out.put("wal.append_ns", "ns", ns)
	l.out.put("wal.allocs_append", "count", allocs)
	ns, _ = l.rung(40, func() error {
		if err := w.Append(len(payload), fill); err != nil {
			return err
		}
		return w.Sync()
	})
	l.out.put("wal.sync_us", "us", ns/1e3)
}

func (l *ladder) diskstore() {
	// A 1 MiB budget under a 4 MiB file: a sequential pass faults on
	// every block, as stream_read does at full size.
	const hot, blocks = 1 << 20, 512
	dir := filepath.Join(l.dir, "ladder.store")
	if err := os.MkdirAll(dir, 0o700); err != nil {
		l.fail(err)
		return
	}
	ds, err := diskstore.Open(dir, diskstore.Options{HotBytes: hot})
	if err != nil {
		l.fail(err)
		return
	}
	defer ds.Close()
	payload, buf := ladderPayload(), make([]byte, blockSize)
	for off := uint64(0); off < blocks*blockSize; off += blockSize {
		if err := ds.WriteAt(1, off, payload, false, 0); err != nil {
			l.fail(err)
			return
		}
	}
	b := uint64(0)
	next := func() uint64 { b = (b + 1) % blocks; return b * blockSize }
	ns, _ := l.rung(blocks, func() error { return ds.WriteAt(1, next(), payload, false, 0) })
	l.out.put("diskstore.write_8k_us", "us", ns/1e3)
	ns, _ = l.rung(2*blocks, func() error { return ds.ReadAt(1, next(), buf) })
	l.out.put("diskstore.read_fault_8k_us", "us", ns/1e3)
	ns, _ = l.rung(50000, func() error { return ds.ReadAt(1, 0, buf) })
	l.out.put("diskstore.read_hot_8k_ns", "ns", ns)
}

// endToEnd boots a small production-default stack of its own and
// measures the operations the rungs should add up to, so the
// residual says how much of an operation the ladder does not explain
// (loopback TCP, goroutine hand-offs, the client daemon's own layers).
func (l *ladder) endToEnd() {
	st, err := bootStack("", false)
	if err != nil {
		l.fail(err)
		return
	}
	defer st.close()    //nolint:errcheck // mem store: nothing to flush
	const blocks = 2048 // 16 MiB: twice the client data cache, so passes miss
	if err := preload(st.fs, "f", 7, 0, blocks); err != nil {
		l.fail(err)
		return
	}
	link, err := st.newClient("bench-client-ladder")
	if err != nil {
		l.fail(err)
		return
	}
	path := st.abs("f")
	f, err := link.cl.Open(user, path)
	if err != nil {
		l.fail(err)
		return
	}
	ns, _ := l.rung(5000, func() error { _, err := link.cl.Stat(user, path); return err })
	l.out.put("client.stat_cached_ns", "ns", ns)

	// A SETATTR is a GETATTR-sized record each way that no cache can
	// answer. Rungs: the NFS pipe round trip (xdr + sunrpc + handlers
	// + vfs) plus one small seal/open per direction.
	small, _ := l.rung(200, func() error { return f.Chmod(0o644) })
	rungs := l.out["nfs.getattr_us"].Value*1e3 + 2*l.out["secchan.seal_open_small_ns"].Value
	l.out.put("ladder.getattr_residual_ratio", "ratio", (small-rungs)/small)

	// Sequential 8 KiB reads, CPU per op (client and server): the
	// pipeline hides latency, not work. Rungs: the NFS pipe READ plus
	// a small seal/open for the call and an 8 KiB one for the reply.
	buf := make([]byte, blockSize)
	off := uint64(0)
	cpu0 := cpuTime()
	passOps := 2 * blocks
	if l.smoke {
		passOps = 8
	}
	for i := 0; i < passOps; i++ {
		if n, err := f.ReadAt(buf, off); n != blockSize || (err != nil && err != io.EOF) {
			l.fail(fmt.Errorf("read at %d: n=%d err=%v", off, n, err))
			return
		}
		off = (off + blockSize) % (blocks * blockSize)
	}
	read := float64(cpuTime()-cpu0) / float64(passOps)
	rungs = l.out["nfs.read_8k_us"].Value*1e3 + l.out["secchan.seal_open_small_ns"].Value + l.out["secchan.seal_open_8k_ns"].Value
	l.out.put("ladder.read8k_residual_ratio", "ratio", (read-rungs)/read)
}
