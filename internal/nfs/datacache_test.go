package nfs

// Tests for the client data block cache: warm re-reads must cost zero
// RPCs, coherence must ride the attribute machinery (remote write →
// callback → fresh bytes), eviction must respect the byte budget, the
// single-flight table must collapse concurrent cold reads, cache hits
// must stay per-principal, and the warm hit path must not allocate.

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// dataCachePair builds a leased server and one client with the data
// cache enabled at the given budget (0 = default).
func dataCachePair(t *testing.T, budget int64) (*Server, *Client) {
	t.Helper()
	fsys := vfs.New()
	srv := NewServer(fsys, sfsServerConfig())
	return srv, dataCacheClient(t, srv, budget)
}

// dataCacheClient attaches one more leased client to srv.
func dataCacheClient(t *testing.T, srv *Server, budget int64) *Client {
	t.Helper()
	a, b := net.Pipe()
	srv.ServeConn(b)
	cl := Dial(a, ClientConfig{
		UseLeases: true, AccessCache: true, Auth: rootAuth,
		DataCacheBytes: budget,
	})
	t.Cleanup(func() { cl.Close() })
	return cl
}

// fillPattern writes n bytes of a deterministic pattern through cl.
func fillPattern(t *testing.T, cl *Client, fh FH, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i>>8) ^ byte(i)
	}
	for off := 0; off < n; off += DataBlockSize {
		end := off + DataBlockSize
		if end > n {
			end = n
		}
		if _, err := cl.Write(fh, uint64(off), data[off:end], Unstable); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Commit(fh); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWarmSequentialRereadZeroRPCs is the acceptance bar: after one
// cold sequential read of a 1 MB file, re-reading it must be served
// entirely from the data cache — zero RPCs of any kind.
func TestWarmSequentialRereadZeroRPCs(t *testing.T) {
	srv, reader := dataCachePair(t, 0)
	writer := dataCacheClient(t, srv, 0)
	const size = 1 << 20

	rootW, _, err := writer.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	fhW, _, err := writer.Create(rootW, "warm.bin", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	want := fillPattern(t, writer, fhW, size)

	rootR, _, err := reader.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := reader.Lookup(rootR, "warm.bin")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := readAll(reader, fh, DataBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, want) {
		t.Fatalf("cold read corrupted: %d vs %d bytes", len(cold), len(want))
	}
	st1 := reader.Stats()
	warm, err := readAll(reader, fh, DataBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	st2 := reader.Stats()
	if !bytes.Equal(warm, want) {
		t.Fatalf("warm read corrupted: %d vs %d bytes", len(warm), len(want))
	}
	if got := st2.Calls - st1.Calls; got != 0 {
		t.Fatalf("warm re-read issued %d RPCs, want 0", got)
	}
	if st2.DataHits-st1.DataHits != size/DataBlockSize {
		t.Fatalf("warm re-read hit %d blocks, want %d", st2.DataHits-st1.DataHits, size/DataBlockSize)
	}
	if st2.DataBytesCached != size {
		t.Fatalf("cache holds %d bytes, want %d", st2.DataBytesCached, size)
	}
}

// TestDataCacheReadYourWrites: write-behind completions populate the
// cache, so reading freshly written data never touches the wire; a
// partial aligned overwrite merges with the cached tail.
func TestDataCacheReadYourWrites(t *testing.T) {
	_, cl := dataCachePair(t, 0)
	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Create(root, "ryw.bin", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	block := bytes.Repeat([]byte{'A'}, DataBlockSize)
	fin, err := cl.WriteStart(fh, 0, block, Unstable)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fin(); err != nil {
		t.Fatal(err)
	}
	st1 := cl.Stats()
	got, eof, err := cl.Read(fh, 0, DataBlockSize)
	if err != nil || !eof {
		t.Fatalf("read back: %v eof=%v", err, eof)
	}
	if !bytes.Equal(got, block) {
		t.Fatal("read-your-writes bytes differ")
	}
	if d := cl.Stats().Calls - st1.Calls; d != 0 {
		t.Fatalf("reading freshly written block cost %d RPCs, want 0", d)
	}

	// Partial aligned overwrite merges into the cached block.
	if _, err := cl.Write(fh, 0, []byte("BB"), Unstable); err != nil {
		t.Fatal(err)
	}
	st2 := cl.Stats()
	got, _, err = cl.Read(fh, 0, DataBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("BB"), block[2:]...)
	if !bytes.Equal(got, want) {
		t.Fatal("merged block content wrong")
	}
	if d := cl.Stats().Calls - st2.Calls; d != 0 {
		t.Fatalf("reading merged block cost %d RPCs, want 0", d)
	}

	// An unaligned write cannot merge: it drops the block, and the
	// next read goes back to the wire.
	if _, err := cl.Write(fh, 100, []byte("xyz"), Unstable); err != nil {
		t.Fatal(err)
	}
	st3 := cl.Stats()
	if _, _, err := cl.Read(fh, 0, DataBlockSize); err != nil {
		t.Fatal(err)
	}
	if d := cl.Stats().Calls - st3.Calls; d != 1 {
		t.Fatalf("read after unaligned write cost %d RPCs, want 1", d)
	}
}

// TestDataCacheRemoteWriteInvalidation is the stale-read scenario:
// client 2 has a file cached, client 1 overwrites it, the server's
// callback drops client 2's blocks, and the re-read returns the new
// bytes.
func TestDataCacheRemoteWriteInvalidation(t *testing.T) {
	srv, cl2 := dataCachePair(t, 0)
	cl1 := dataCacheClient(t, srv, 0)
	root1, _, err := cl1.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	fh1, _, err := cl1.Create(root1, "shared.bin", 0o666, true)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{'o'}, DataBlockSize)
	if _, err := cl1.Write(fh1, 0, old, FileSync); err != nil {
		t.Fatal(err)
	}

	root2, _, _ := cl2.MountRoot()
	fh2, _, err := cl2.Lookup(root2, "shared.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cl2.Read(fh2, 0, DataBlockSize)
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("prime read: %v", err)
	}
	if got, _, _ := cl2.Read(fh2, 0, DataBlockSize); !bytes.Equal(got, old) {
		t.Fatal("warm read differs")
	}

	before := cl2.Stats().Invals
	fresh := bytes.Repeat([]byte{'n'}, DataBlockSize)
	if _, err := cl1.Write(fh1, 0, fresh, FileSync); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cl2.Stats().Invals == before {
		if time.Now().After(deadline) {
			t.Fatal("no invalidation callback arrived")
		}
		time.Sleep(time.Millisecond)
	}
	// The callback dropped attrs and blocks together; polling covers
	// the write racing its own callback.
	calls := cl2.Stats().Calls
	for {
		got, _, err := cl2.Read(fh2, 0, DataBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, fresh) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale bytes served after invalidation: %q...", got[:8])
		}
		time.Sleep(time.Millisecond)
	}
	// The fresh bytes came over the wire: the dropped blocks were
	// fetched again, not served from the cache.
	if cl2.Stats().Calls == calls {
		t.Fatal("re-read after invalidation cost no RPCs")
	}
}

// TestDataCacheEviction: a tiny budget stays bounded and evicts
// CLOCK-wise; re-reading an evicted block goes back to the wire.
func TestDataCacheEviction(t *testing.T) {
	const budget = 2 * DataBlockSize
	_, cl := dataCachePair(t, budget)
	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Create(root, "evict.bin", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(t, cl, fh, 6*DataBlockSize)
	st := cl.Stats()
	if st.DataBytesCached > budget {
		t.Fatalf("cache %d bytes over its %d budget", st.DataBytesCached, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under a 2-block budget")
	}
	// 6 blocks passed through a 2-block cache: at least one early
	// block must be gone, so a full re-read needs the wire again.
	st1 := cl.Stats()
	if _, err := readAll(cl, fh, DataBlockSize); err != nil {
		t.Fatal(err)
	}
	if d := cl.Stats().Calls - st1.Calls; d == 0 {
		t.Fatal("re-read of evicted range cost no RPCs")
	}
}

// TestDataCacheAuthFollowsBlocks: the proven-principal set of a file
// goes when its last block is evicted — one-block files streamed
// through a small budget must not each leave a set behind.
func TestDataCacheAuthFollowsBlocks(t *testing.T) {
	const budget = 16 * DataBlockSize
	_, cl := dataCachePair(t, budget)
	root, _, _ := cl.MountRoot()
	for i := 0; i < 2*budget/DataBlockSize; i++ {
		fh, _, err := cl.Create(root, "one-block-"+string(rune('a'+i)), 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(t, cl, fh, DataBlockSize)
	}
	dc := cl.core.dc
	cl.core.mu.RLock()
	files, auth := len(dc.files), len(dc.auth)
	cl.core.mu.RUnlock()
	if files == 0 || files > budget/DataBlockSize || auth > files {
		t.Fatalf("%d files hold blocks (budget %d), %d hold a principal set", files, budget/DataBlockSize, auth)
	}
}

// TestDataCacheTruncate: SETATTR with a size keeps attributes but
// drops the file's bytes, so reads see the new length immediately.
func TestDataCacheTruncate(t *testing.T) {
	_, cl := dataCachePair(t, 0)
	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Create(root, "trunc.bin", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(t, cl, fh, DataBlockSize)
	if got, _, _ := cl.Read(fh, 0, DataBlockSize); len(got) != DataBlockSize {
		t.Fatalf("warm read %d bytes", len(got))
	}
	size := uint64(10)
	if _, err := cl.SetAttr(SetAttrArgs{FH: fh, SetSize: &size}); err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.DataBytesCached != 0 {
		t.Fatalf("truncate left %d bytes cached", st.DataBytesCached)
	}
	got, eof, err := cl.Read(fh, 0, DataBlockSize)
	if err != nil || !eof || len(got) != 10 {
		t.Fatalf("read after truncate: %d bytes eof=%v err=%v", len(got), eof, err)
	}
}

// TestSingleFlightSharesColdRead: a reader arriving while a cold
// block's READ is in flight joins it instead of issuing its own RPC.
func TestSingleFlightSharesColdRead(t *testing.T) {
	srv, cl := dataCachePair(t, 0)
	writer := dataCacheClient(t, srv, 0)
	rootW, _, _ := writer.MountRoot()
	fhW, _, err := writer.Create(rootW, "cold.bin", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	want := fillPattern(t, writer, fhW, DataBlockSize)

	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Lookup(root, "cold.bin")
	if err != nil {
		t.Fatal(err)
	}
	st1 := cl.Stats()
	// Leader: starts the READ but does not finish it yet, so the
	// flight stays open.
	fin, err := cl.ReadStart(fh, 0, DataBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		data []byte
		err  error
	}
	joined := make(chan res, 1)
	go func() {
		data, _, err := cl.Read(fh, 0, DataBlockSize)
		joined <- res{data, err}
	}()
	// The joiner registers on the flight before blocking; wait for
	// that, then let the leader finish.
	deadline := time.Now().Add(2 * time.Second)
	for cl.Stats().SingleFlightShared == st1.SingleFlightShared {
		if time.Now().After(deadline) {
			t.Fatal("second reader never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	data, _, err := fin()
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("leader read: %v", err)
	}
	r := <-joined
	if r.err != nil || !bytes.Equal(r.data, want) {
		t.Fatalf("joiner read: %v", r.err)
	}
	st2 := cl.Stats()
	if d := st2.Calls - st1.Calls; d != 1 {
		t.Fatalf("two concurrent cold reads cost %d RPCs, want 1", d)
	}
	if st2.SingleFlightShared != st1.SingleFlightShared+1 {
		t.Fatalf("singleflight shared %d, want 1 more", st2.SingleFlightShared)
	}
}

// TestDataCacheDisabled: a negative budget turns the cache off and
// every read pays its RPC.
func TestDataCacheDisabled(t *testing.T) {
	_, cl := dataCachePair(t, -1)
	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Create(root, "off.bin", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(t, cl, fh, DataBlockSize)
	st1 := cl.Stats()
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Read(fh, 0, DataBlockSize); err != nil {
			t.Fatal(err)
		}
	}
	st2 := cl.Stats()
	if d := st2.Calls - st1.Calls; d != 3 {
		t.Fatalf("disabled cache cost %d RPCs for 3 reads, want 3", d)
	}
	if st2.DataHits != 0 || st2.DataBytesCached != 0 {
		t.Fatalf("disabled cache recorded hits: %+v", st2)
	}
}

// TestDataCachePerPrincipal: blocks are stored connection-wide but
// served only to principals that have proven access over the wire —
// another view's first read must pay its own RPC (where the server
// checks its credentials), and only then may it hit.
func TestDataCachePerPrincipal(t *testing.T) {
	_, cl := dataCachePair(t, 0)
	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Create(root, "shared.bin", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	want := fillPattern(t, cl, fh, DataBlockSize)
	if _, _, err := cl.Read(fh, 0, DataBlockSize); err != nil {
		t.Fatal(err)
	}

	other := cl.WithAuth("other", rootAuth)
	st1 := cl.Stats()
	got, _, err := other.Read(fh, 0, DataBlockSize)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("other principal read: %v", err)
	}
	if d := cl.Stats().Calls - st1.Calls; d != 1 {
		t.Fatalf("other principal's first read cost %d RPCs, want 1 (must not ride the cache)", d)
	}
	st2 := cl.Stats()
	if _, _, err := other.Read(fh, 0, DataBlockSize); err != nil {
		t.Fatal(err)
	}
	if d := cl.Stats().Calls - st2.Calls; d != 0 {
		t.Fatalf("other principal's second read cost %d RPCs, want 0", d)
	}
}

// TestDataCacheStressRace hammers one file from concurrent readers, a
// local writer, and a remote writer whose server callbacks invalidate
// mid-flight, all under a 3-block budget so eviction churns. Written
// for the race detector. Invariants: every read observes some
// complete write (uniform block fill, full length) and the local
// writer always reads its own last write back.
func TestDataCacheStressRace(t *testing.T) {
	const (
		blocks      = 8
		localBlocks = 4 // blocks [0,4) are the local writer's territory
		iters       = 300
	)
	srv, cl := dataCachePair(t, 3*DataBlockSize)
	remote := dataCacheClient(t, srv, 0)

	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Create(root, "stress.bin", 0o666, true)
	if err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < blocks; blk++ {
		buf := bytes.Repeat([]byte{byte(blk + 1)}, DataBlockSize)
		if _, err := cl.Write(fh, uint64(blk)*DataBlockSize, buf, Unstable); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Commit(fh); err != nil {
		t.Fatal(err)
	}
	rootR, _, _ := remote.MountRoot()
	fhR, _, err := remote.Lookup(rootR, "stress.bin")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...interface{}) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	// Readers: any block, any version, but never torn and never
	// short.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters && !failed.Load(); i++ {
				blk := (i*7 + seed*3) % blocks
				data, _, err := cl.Read(fh, uint64(blk)*DataBlockSize, DataBlockSize)
				if err != nil {
					fail("reader: %v", err)
					return
				}
				if len(data) != DataBlockSize {
					fail("reader: short block %d: %d bytes", blk, len(data))
					return
				}
				for _, b := range data {
					if b != data[0] {
						fail("torn read in block %d: %x vs %x", blk, b, data[0])
						return
					}
				}
			}
		}(r)
	}

	// Local writer: owns blocks [0,localBlocks) exclusively, so
	// read-your-writes must hold for it even while callbacks from the
	// remote writer drop the whole file's cached state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters && !failed.Load(); i++ {
			blk := i % localBlocks
			v := byte(10 + i%40)
			buf := bytes.Repeat([]byte{v}, DataBlockSize)
			if _, err := cl.Write(fh, uint64(blk)*DataBlockSize, buf, Unstable); err != nil {
				fail("local writer: %v", err)
				return
			}
			data, _, err := cl.Read(fh, uint64(blk)*DataBlockSize, DataBlockSize)
			if err != nil {
				fail("local writer read-back: %v", err)
				return
			}
			if len(data) != DataBlockSize || data[0] != v || data[DataBlockSize-1] != v {
				fail("read-your-writes violated: block %d wrote %x read %x (%d bytes)",
					blk, v, data[0], len(data))
				return
			}
		}
	}()

	// Remote writer: blocks [localBlocks, blocks), each write firing
	// an invalidation callback into cl.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3 && !failed.Load(); i++ {
			blk := localBlocks + i%(blocks-localBlocks)
			buf := bytes.Repeat([]byte{byte(100 + i%40)}, DataBlockSize)
			if _, err := remote.Write(fhR, uint64(blk)*DataBlockSize, buf, FileSync); err != nil {
				fail("remote writer: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	if failed.Load() {
		return
	}

	// Post-callback freshness, deterministically: a final remote
	// write must become visible to cl within the callback window.
	final := bytes.Repeat([]byte{0xEE}, DataBlockSize)
	if _, err := remote.Write(fhR, uint64(localBlocks)*DataBlockSize, final, FileSync); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _, err := cl.Read(fh, uint64(localBlocks)*DataBlockSize, DataBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(data, final) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote write never became visible: reading %x", data[0])
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkWarmRead measures the data-cache hit path: one 8 KB block,
// already cached, read in a loop. ReportAllocs keeps the zero-alloc
// property visible in bench-smoke output.
func BenchmarkWarmRead(b *testing.B) {
	fsys := vfs.New()
	srv := NewServer(fsys, sfsServerConfig())
	a, conn := net.Pipe()
	srv.ServeConn(conn)
	cl := Dial(a, ClientConfig{UseLeases: true, AccessCache: true, Auth: rootAuth})
	defer cl.Close()
	root, _, err := cl.MountRoot()
	if err != nil {
		b.Fatal(err)
	}
	fh, _, err := cl.Create(root, "bench.bin", 0o644, true)
	if err != nil {
		b.Fatal(err)
	}
	block := bytes.Repeat([]byte{'w'}, DataBlockSize)
	if _, err := cl.Write(fh, 0, block, FileSync); err != nil {
		b.Fatal(err)
	}
	if _, _, err := cl.Read(fh, 0, DataBlockSize); err != nil {
		b.Fatal(err)
	}
	calls := cl.Stats().Calls
	b.ReportAllocs()
	b.SetBytes(DataBlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _, err := cl.Read(fh, 0, DataBlockSize)
		if err != nil || len(data) != DataBlockSize {
			b.Fatalf("warm read: %v (%d bytes)", err, len(data))
		}
	}
	b.StopTimer()
	if d := cl.Stats().Calls - calls; d != 0 {
		b.Fatalf("warm benchmark loop issued %d RPCs, want 0", d)
	}
}

// TestWarmReadHitPathZeroAlloc is the hard-fail twin of
// BenchmarkWarmRead: a cache hit must not allocate, or the warm read
// path gains a per-block GC tax that the benchmark would only report.
func TestWarmReadHitPathZeroAlloc(t *testing.T) {
	_, cl := dataCachePair(t, 0)
	root, _, _ := cl.MountRoot()
	fh, _, err := cl.Create(root, "hot.bin", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(t, cl, fh, DataBlockSize)
	if _, _, err := cl.Read(fh, 0, DataBlockSize); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, err := cl.Read(fh, 0, DataBlockSize); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm hit path allocates %.1f allocs/op, want 0", avg)
	}
}
