package sunrpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/xdr"
)

// residentWorkers reports how many workers d has started and not yet
// retired: parked ones plus those with a call in hand.
func residentWorkers(d *dispatcher) (parked, busy int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.idle), d.inflight
}

// waitFor polls cond — for state another goroutine is about to reach,
// where there is no event to wait on — and fails the test if it does
// not hold within two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSerialClientKeepsOneWorker: calls issued strictly one after
// another are all served by the same resident worker, in peer mode
// (the path sfssd serves on) and under ServeConn alike — including
// the race where the next call arrives before the worker that
// answered the last one has parked.
func TestSerialClientKeepsOneWorker(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	c1, c2 := net.Pipe()
	peer := NewPeer(c2, srv, nil)
	defer peer.Close()
	cl := NewClient(c1)
	defer cl.Close()
	started := runtime.NumGoroutine()
	for i := 0; i < 2000; i++ {
		if err := cl.Call(testProg, testVers, 0, NoAuth(), nil, &struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the worker to park", func() bool { p, b := residentWorkers(peer.disp); return p == 1 && b == 0 })
	if n := runtime.NumGoroutine(); n > started+1 {
		t.Fatalf("%d goroutines after 2000 serial calls, %d before: more than one resident worker", n, started)
	}
	m := srv.Metrics()
	if w, f := m.Workers.Load(), m.InFlight.Load(); w != 0 || f != 0 {
		t.Fatalf("gauges at rest: workers=%d inflight=%d", w, f)
	}
}

// TestConnectServeCloseLeavesNoGoroutines: workers are retired when
// their connection goes, both modes, whether they were parked or not.
func TestConnectServeCloseLeavesNoGoroutines(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	cycle := func(peerMode bool) {
		c1, c2 := net.Pipe()
		var peer *Client
		served := make(chan struct{})
		if peerMode {
			peer = NewPeer(c2, srv, nil)
			close(served)
		} else {
			go func() { srv.ServeConn(c2); close(served) }() //nolint:errcheck
		}
		cl := NewClient(c1)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ { // a few at once, so several workers exist
			wg.Add(1)
			go func() {
				defer wg.Done()
				var res echoRes
				if err := cl.Call(testProg, testVers, 1, NoAuth(), echoArgs{N: 1, Msg: "x"}, &res); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		cl.Close()
		if peer != nil {
			peer.Close()
		}
		<-served
	}
	cycle(true) // warm pools and lazily started runtime goroutines
	cycle(false)
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		cycle(i%2 == 0)
	}
	waitFor(t, "workers and read loops to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestWorkersBoundedUnderBurst: a 64-deep pipelined burst never has
// more than the bound of handlers running, nor more than n calls read
// and unanswered; both gauges return to zero.
func TestWorkersBoundedUnderBurst(t *testing.T) {
	const limit, burst = 4, 64
	for _, peerMode := range []bool{false, true} {
		srv := NewServer()
		srv.workers = limit
		var mu sync.Mutex
		running, peak := 0, 0
		srv.Register(testProg, testVers, func(uint32, OpaqueAuth, *xdr.Decoder) (interface{}, error) {
			mu.Lock()
			running++
			peak = max(peak, running)
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			mu.Lock()
			running--
			mu.Unlock()
			return uint32(1), nil
		})
		c1, c2 := net.Pipe()
		if peerMode {
			peer := NewPeer(c2, srv, nil)
			defer peer.Close()
		} else {
			go srv.ServeConn(c2) //nolint:errcheck
		}
		cl := NewClient(c1)
		met := srv.Metrics()
		stop := make(chan struct{})
		gaugePeak := make(chan int64, 1)
		go func() {
			var p int64
			for {
				select {
				case <-stop:
					gaugePeak <- p
					return
				default:
					p = max(p, met.Workers.Load())
					runtime.Gosched()
				}
			}
		}()
		var chans []<-chan record
		for i := 0; i < burst; i++ {
			ch, err := cl.Start(testProg, testVers, 1, NoAuth(), nil)
			if err != nil {
				t.Fatal(err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			var out uint32
			if err := cl.Finish(ch, &out); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		if p := <-gaugePeak; p > limit {
			t.Fatalf("peer=%v: Workers gauge reached %d, limit %d", peerMode, p, limit)
		}
		if peak > limit {
			t.Fatalf("peer=%v: %d handlers ran at once, limit %d", peerMode, peak, limit)
		}
		waitFor(t, "gauges to return to zero", func() bool { return met.Workers.Load() == 0 && met.InFlight.Load() == 0 })
		cl.Close()
	}
}

// TestHandlerCallsBackOverSamePeer is the lease-break shape: a handler
// issues a call of its own over the connection it is serving and
// waits for the answer, while every other worker of that connection is
// stuck in a handler. The answer arrives on the same read loop that
// fed the workers; it must get through.
func TestHandlerCallsBackOverSamePeer(t *testing.T) {
	const limit = 4
	gate := make(chan struct{})
	var left, right *Client

	a := NewServer() // serves on the left end
	a.workers = limit
	a.Register(testProg, testVers, func(proc uint32, _ OpaqueAuth, _ *xdr.Decoder) (interface{}, error) {
		switch proc {
		case 10: // stall
			<-gate
			return uint32(10), nil
		case 20: // call the other side back and wait
			var out uint32
			if err := left.Call(testProg, testVers, 1, NoAuth(), nil, &out); err != nil {
				return nil, err
			}
			return out + 1, nil
		}
		return nil, ErrProcUnavail
	})
	b := NewServer() // the other side answers call-backs
	b.Register(testProg, testVers, func(uint32, OpaqueAuth, *xdr.Decoder) (interface{}, error) {
		return uint32(41), nil
	})
	c1, c2 := net.Pipe()
	left, right = NewPeer(c1, a, nil), NewPeer(c2, b, nil)
	defer left.Close()
	defer right.Close()

	var stalled []<-chan record
	for i := 0; i < limit-1; i++ {
		ch, err := right.Start(testProg, testVers, 10, NoAuth(), nil)
		if err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, ch)
	}
	waitFor(t, "the stalling handlers to start", func() bool { return a.Metrics().Workers.Load() == limit-1 })
	done := make(chan error, 1)
	var out uint32
	go func() { done <- right.Call(testProg, testVers, 20, NoAuth(), nil, &out) }()
	select {
	case err := <-done:
		if err != nil || out != 42 {
			t.Fatalf("nested call: %d, %v", out, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler's own call never completed: its reply is stuck behind the busy workers")
	}
	close(gate)
	for _, ch := range stalled {
		if err := right.Finish(ch, new(uint32)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueuedBehindFinishingWorker drives the hand-off the serial test
// can only hit by luck: with the lone worker held between its handler
// and the end of its reply write, the next call must wait for it, not
// start a second worker.
func TestQueuedBehindFinishingWorker(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	c1, c2 := net.Pipe() // unbuffered: a reply write blocks until the test reads it
	peer := NewPeer(c2, srv, nil)
	defer peer.Close()
	defer c1.Close()
	for xid := uint32(1); xid <= 2; xid++ {
		if err := WriteRecord(c1, callRecord(t, xid, 0)); err != nil {
			t.Fatal(err)
		}
		if xid == 1 {
			waitFor(t, "the worker to reach its reply write", func() bool {
				peer.disp.mu.Lock()
				defer peer.disp.mu.Unlock()
				return peer.disp.finishing == 1
			})
		}
	}
	waitFor(t, "the second call to be read", func() bool { return srv.Metrics().InFlight.Load() == 2 })
	peer.disp.mu.Lock()
	queued, parked := len(peer.disp.pending), len(peer.disp.idle)
	peer.disp.mu.Unlock()
	if queued != 1 || parked != 0 {
		t.Fatalf("second call: %d queued, %d parked workers; want it queued behind the finishing worker", queued, parked)
	}
	for want := uint32(1); want <= 2; want++ {
		rec, err := ReadRecord(c1)
		if err != nil || binary.BigEndian.Uint32(rec) != want {
			t.Fatalf("reply %d: %v", want, err)
		}
	}
	waitFor(t, "the worker to park", func() bool { p, b := residentWorkers(peer.disp); return p == 1 && b == 0 })
}

// TestHeaderCodecMatchesPlan: the hand-written call-header and
// OpaqueAuth codecs put and take exactly the bytes xdr's plan for the
// same structs does, so the wire cannot tell which one ran.
func TestHeaderCodecMatchesPlan(t *testing.T) {
	for _, h := range []callHeader{
		{RPCVers: RPCVersion, Prog: testProg, Vers: testVers, Proc: 7, Cred: SFSAuth(9), Verf: NoAuth()},
		{RPCVers: RPCVersion, Prog: 1, Vers: 2, Proc: 3, Cred: UnixAuth(1000, []uint32{1000, 20})},
		{Cred: OpaqueAuth{Flavor: 5, Body: []byte{1, 2, 3}}}, // a body that needs padding
	} {
		var e xdr.Encoder
		h.put(&e)
		want := xdr.MustMarshal(h)
		if !bytes.Equal(e.Bytes(), want) {
			t.Fatalf("put wrote %x, the plan %x", e.Bytes(), want)
		}
		var got, ref callHeader
		if err := got.get(xdr.NewDecoder(want)); err != nil {
			t.Fatal(err)
		}
		if err := xdr.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		var back xdr.Encoder
		got.put(&back)
		if !bytes.Equal(back.Bytes(), want) || got.Proc != ref.Proc || !bytes.Equal(got.Cred.Body, ref.Cred.Body) {
			t.Fatalf("get decoded %+v, the plan %+v", got, ref)
		}
		if err := new(callHeader).get(xdr.NewDecoder(want[:len(want)-1])); err == nil {
			t.Fatal("get accepted a truncated header")
		}
	}
}

// TestForgedRecordLengthDoesNotAllocate: on a transport with no
// channel under it the 4-byte mark is the peer's unauthenticated
// claim. A buffer is sized by what arrives, not by the claim.
func TestForgedRecordLengthDoesNotAllocate(t *testing.T) {
	for _, sent := range []int{0, 1000} {
		in := append([]byte{0x84, 0, 0, 0}, make([]byte, sent)...) // "64 MiB follow"
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ReadRecord(bytes.NewReader(in))
		runtime.ReadMemStats(&m1)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("%d bytes behind the mark: err = %v, want unexpected EOF", sent, err)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > 1<<20 {
			t.Fatalf("%d bytes behind the mark: allocated %d", sent, got)
		}
	}
	if _, err := ReadRecord(bytes.NewReader([]byte{0x84, 0, 0, 1})); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("a mark past MaxRecord: err = %v", err)
	}
}

// TestReadFullGrowLargeRecord: a record larger than one growth step
// arrives whole, across several steps.
func TestReadFullGrowLargeRecord(t *testing.T) {
	want := make([]byte, 3*growStep+123)
	for i := range want {
		want[i] = byte(i >> 8)
	}
	var framed bytes.Buffer
	if err := WriteRecord(&framed, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(&framed)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("large record: %d bytes, %v", len(got), err)
	}
}

func FuzzReadRecord(f *testing.F) {
	f.Add([]byte{0x80, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c', 0x80, 0, 0, 2, 'd', 'e'}) // two fragments
	f.Add([]byte{0x80, 0, 1, 0, 'x'})                                 // truncated
	f.Add([]byte{0x84, 0, 0, 0})                                      // 64 MiB claimed
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                             // past MaxRecord
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0})              // empty fragments
	f.Fuzz(func(t *testing.T, in []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := bytes.NewReader(in)
		rec, err := ReadRecord(r)
		runtime.ReadMemStats(&m1)
		// Twice the input for a buffer that doubled just before the end,
		// a growth step for the first allocation, and room for whatever
		// else the process allocated meanwhile.
		if got := m1.TotalAlloc - m0.TotalAlloc; got > uint64(4*len(in)+2*growStep) {
			t.Fatalf("allocated %d bytes reading a %d-byte input", got, len(in))
		}
		if err != nil {
			return
		}
		// A record is its fragments' bodies in order: re-frame and compare.
		consumed := in[:len(in)-r.Len()]
		var bodies []byte
		for len(consumed) > 0 {
			n := int(binary.BigEndian.Uint32(consumed) & 0x7fffffff)
			bodies = append(bodies, consumed[4:4+n]...)
			consumed = consumed[4+n:]
		}
		if !bytes.Equal(rec, bodies) {
			t.Fatalf("record is not the concatenation of its fragments")
		}
	})
}

// replayConn is a served connection fed from a byte slice: it reads to
// the end whatever happens, and replies go nowhere.
type replayConn struct{ *bytes.Reader }

func (replayConn) Write(p []byte) (int, error) { return len(p), nil }
func (replayConn) Close() error                { return nil }

// FuzzServeConn feeds arbitrary record-marked bytes to a served
// connection. Nothing may panic, and every record read is counted
// once: as a call, or as dropped. The seeds (testdata/fuzz) are calls
// that succeed and fail, a record too short to classify, a stray
// reply, truncated headers, a cut record and a fragmented one.
func FuzzServeConn(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		records := 0
		for r := bytes.NewReader(in); ; records++ {
			if _, err := ReadRecord(r); err != nil {
				break
			}
		}
		srv := NewServer()
		srv.Register(testProg, testVers, echoHandler)
		srv.ServeConn(replayConn{bytes.NewReader(in)}) //nolint:errcheck
		m := srv.Metrics()
		if got := m.Calls.Load() + m.Dropped.Load(); got != uint64(records) {
			t.Fatalf("%d records read, %d calls + %d dropped", records, m.Calls.Load(), m.Dropped.Load())
		}
	})
}

// BenchmarkPeerNullCall is a null RPC served in peer mode over
// net.Pipe: the path sfssd serves on (readLoop → resident worker →
// reply under the peer's write lock), which the ladder's
// sunrpc.allocs_null rung (ServeConn) does not cover.
func BenchmarkPeerNullCall(b *testing.B) {
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	c1, c2 := net.Pipe()
	peer := NewPeer(c2, srv, nil)
	defer peer.Close()
	cl := NewClient(c1)
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Call(testProg, testVers, 0, NoAuth(), nil, &struct{}{}); err != nil {
			b.Fatal(err)
		}
	}
}
