package nfs

// Tests for the striped lease table and the no-RPC-under-lock rule:
// a stalled client must only ever stall its own invalidation
// goroutine, never a writer on another session, and the lease
// bookkeeping must hold up under concurrent attach/detach/invalidate
// (run these with -race).

import (
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// stallableConn passes writes through until Stall is called, then
// blocks them until the test finishes — simulating a client that
// stopped draining its connection while the server has callbacks to
// push at it. net.Pipe has no buffer, so one undrained callback would
// block the writing goroutine exactly like a zero-window TCP peer.
type stallableConn struct {
	io.ReadWriteCloser
	stalled atomic.Bool
	release chan struct{}
}

func newStallableConn(c io.ReadWriteCloser) *stallableConn {
	return &stallableConn{ReadWriteCloser: c, release: make(chan struct{})}
}

func (c *stallableConn) Stall() { c.stalled.Store(true) }

func (c *stallableConn) Write(p []byte) (int, error) {
	if c.stalled.Load() {
		<-c.release
		return 0, io.ErrClosedPipe
	}
	return c.ReadWriteCloser.Write(p)
}

// TestStalledSessionDoesNotBlockWriters is the regression test for
// lease-break callbacks escaping every server lock: before the lease
// table was striped and callbacks moved to detached goroutines, a
// client that stopped reading could wedge any writer that needed to
// invalidate a lease the stalled client held.
func TestStalledSessionDoesNotBlockWriters(t *testing.T) {
	fs := vfs.New()
	srv := NewServer(fs, sfsServerConfig())

	// Session A: acquires leases, then goes deaf.
	a1, a2 := net.Pipe()
	aConn := newStallableConn(a2)
	sessA := srv.ServeConn(aConn)
	defer sessA.Close()
	defer close(aConn.release)
	clA := Dial(a1, ClientConfig{Auth: rootAuth, UseLeases: true})
	defer clA.Close()

	// Session B: the writer that must not be affected.
	b1, b2 := net.Pipe()
	sessB := srv.ServeConn(b2)
	defer sessB.Close()
	clB := Dial(b1, ClientConfig{Auth: rootAuth, UseLeases: true})
	defer clB.Close()

	rootA, _, err := clA.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := clA.Create(rootA, "f", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clA.GetAttr(fh); err != nil { // lease on f for session A
		t.Fatal(err)
	}
	rootB, _, err := clB.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	fhB, _, err := clB.Lookup(rootB, "f")
	if err != nil {
		t.Fatal(err)
	}

	aConn.Stall()

	// B's write triggers an invalidation callback to the now-deaf A.
	// The callback goroutine blocks forever; the write must not.
	done := make(chan error, 1)
	go func() {
		if _, err := clB.Write(fhB, 0, []byte("x"), FileSync); err != nil {
			done <- err
			return
		}
		// Unrelated traffic on the same server must flow too.
		_, _, err := clB.Create(rootB, "g", 0o644, true)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked behind a stalled session's callback")
	}

	st := srv.StatsSnapshot()
	if st.Leases.Granted == 0 {
		t.Fatal("no leases granted — test exercised nothing")
	}
	if st.VFSLocks.NodeLocks == 0 {
		t.Fatal("server snapshot carries no per-node lock acquisitions")
	}
	if st.Leases.Breaks == 0 {
		t.Fatal("no lease break recorded for the stalled session")
	}
}

// TestConcurrentLeaseAttachDetachInvalidate hammers the striped lease
// table from many goroutines: grants and invalidations on overlapping
// files race against whole sessions detaching. Run with -race; the
// assertion here is only that nothing deadlocks and the table drains.
func TestConcurrentLeaseAttachDetachInvalidate(t *testing.T) {
	fs := vfs.New()
	srv := NewServer(fs, sfsServerConfig())

	const nSessions = 4
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		c1, c2 := net.Pipe()
		sessions[i] = srv.ServeConn(c2)
		// Drain the client side so callback writes never block.
		go io.Copy(io.Discard, c1) //nolint:errcheck
		defer c1.Close()
	}

	const nFiles = 100 // spans several stripes and collides within them
	ids := make([]vfs.FileID, nFiles)
	root := fs.Root()
	for i := range ids {
		id, _, err := fs.Create(vfs.Cred{UID: 0}, root, "f"+strconv.Itoa(i), 0o644, true)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, sess := range sessions {
		sess := sess
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				srv.grantLease(sess, ids[i%nFiles])
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				srv.invalidate(nil, ids[i%nFiles], ids[(i+nFiles/2)%nFiles])
			}
		}()
	}
	// Sessions detach (and new grants keep landing) while the above runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, sess := range sessions[:nSessions/2] {
			time.Sleep(10 * time.Millisecond)
			srv.dropSession(sess)
		}
	}()

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Invalidating everything leaves the table empty.
	srv.invalidate(nil, ids...)
	for i := range srv.leases {
		ls := &srv.leases[i]
		ls.mu.Lock()
		n := len(ls.m)
		ls.mu.Unlock()
		if n != 0 {
			t.Fatalf("stripe %d still holds %d lease entries", i, n)
		}
	}
	if srv.StatsSnapshot().Leases.StripeLocks == 0 {
		t.Fatal("stripe lock counter never moved")
	}
}

// TestRemoveDropsLeases: a file's lease entry goes with its last link.
// The remover's own lease is the one invalidate never touches; left
// behind, the table grows by an entry per file a long-lived session
// ever created and deleted.
func TestRemoveDropsLeases(t *testing.T) {
	srv, cl := dataCachePair(t, 0)
	root, _, err := cl.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	entries := func() (n int) {
		for i := range srv.leases {
			ls := &srv.leases[i]
			ls.mu.Lock()
			n += len(ls.m)
			ls.mu.Unlock()
		}
		return n
	}
	fh, _, err := cl.Create(root, "kept", 0o644, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Link(fh, root, "second-name"); err != nil {
		t.Fatal(err)
	}
	base := entries()
	for i := 0; i < 50; i++ {
		if _, _, err := cl.Create(root, "tmp", 0o644, true); err != nil {
			t.Fatal(err)
		}
		if err := cl.Remove(root, "tmp"); err != nil {
			t.Fatal(err)
		}
	}
	if n := entries(); n != base {
		t.Fatalf("%d lease entries after 50 create/remove cycles, %d before", n, base)
	}
	// A file that still has a link keeps its leases.
	if err := cl.Remove(root, "second-name"); err != nil {
		t.Fatal(err)
	}
	if n := entries(); n != base {
		t.Fatalf("removing one of two links changed the table: %d entries, want %d", n, base)
	}
}

// TestRenameOverCallsBackVictim: a RENAME over an existing name unlinks
// the node that name was bound to, as REMOVE does. Its other lease
// holders are called back, and with its last link gone its lease-table
// entry goes too.
func TestRenameOverCallsBackVictim(t *testing.T) {
	srv, a := dataCachePair(t, 0)
	b := dataCacheClient(t, srv, 0)
	rootA, _, err := a.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := a.Mkdir(rootA, "d", 0o755)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x", "y"} {
		if _, _, err := a.Create(d, name, 0o644, true); err != nil {
			t.Fatal(err)
		}
	}
	rootB, _, err := b.MountRoot()
	if err != nil {
		t.Fatal(err)
	}
	dB, _, err := b.Lookup(rootB, "d")
	if err != nil {
		t.Fatal(err)
	}
	fhY, _, err := b.Lookup(dB, "y") // B now holds a lease on y
	if err != nil {
		t.Fatal(err)
	}
	y, err := srv.codec.Decode(fhY)
	if err != nil {
		t.Fatal(err)
	}
	held := func() bool {
		b.core.mu.RLock()
		defer b.core.mu.RUnlock()
		return b.core.recs[string(fhY)] != nil
	}
	if !held() {
		t.Fatal("B holds no record for y before the rename")
	}

	if err := a.Rename(d, "x", d, "y"); err != nil {
		t.Fatal(err)
	}
	waitUntil := time.Now().Add(2 * time.Second)
	for held() {
		if time.Now().After(waitUntil) {
			t.Fatal("B was never called back about the node the rename unlinked")
		}
		time.Sleep(time.Millisecond)
	}
	ls := srv.leaseStripeOf(y)
	ls.mu.Lock()
	_, kept := ls.m[y]
	ls.mu.Unlock()
	if kept {
		t.Fatal("the lease table still holds an entry for a node with no links")
	}
}
