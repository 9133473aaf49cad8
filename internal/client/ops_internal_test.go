package client

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/nfs"
)

// zeroWriteView acknowledges every write with zero bytes and no error:
// a degenerate server that a writer retrying short writes would loop on
// forever.
type zeroWriteView struct{ View }

func (zeroWriteView) WriteStart(nfs.FH, uint64, []byte, uint32) (func() (uint32, uint64, error), error) {
	return func() (uint32, uint64, error) { return 0, 0, nil }, nil
}

// TestWriteAtZeroProgress writes through the write-behind window to a
// server that acknowledges zero bytes: WriteAt buffers the bytes and
// returns, and the zero-byte acknowledgment must end the Flush that
// retires the WRITE with io.ErrShortWrite, not be retried.
func TestWriteAtZeroProgress(t *testing.T) {
	c := &Client{chunks: newChunkPool()}
	f := c.newFile(&node{view: zeroWriteView{}, mount: &mount{io: new(ioStats)}, fh: nfs.FH{1}})
	if n, err := f.WriteAt(make([]byte, 100), 0); err != nil || n != 100 {
		t.Fatalf("WriteAt = %d, %v; want 100 bytes buffered", n, err)
	}
	if err := f.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush err = %v, want io.ErrShortWrite", err)
	}
}

// TestDroppedClientUnmapsChunks: a Client dropped without Close, with
// the slab of a finished batch still mapped, unmaps it once nothing
// reaches the Client.
func TestDroppedClientUnmapsChunks(t *testing.T) {
	c, err := New(Config{Dial: func(string) (net.Conn, error) { return nil, errors.New("no servers here") }})
	if err != nil {
		t.Fatal(err)
	}
	f := c.newFile(&node{view: zeroWriteView{}, mount: &mount{io: &c.io}, fh: nfs.FH{1}})
	if _, err := f.WriteAt(make([]byte, 3*wireChunk), 0); err != nil {
		t.Fatal(err)
	}
	f.discard()
	pool := c.chunks
	if m := pool.Mapped(); m == 0 {
		t.Fatal("no slab kept after a drained batch")
	}
	c, f = nil, nil
	for deadline := time.Now().Add(5 * time.Second); pool.Mapped() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("mapped %d bytes long after the Client was dropped", pool.Mapped())
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFileOutlivesItsClient: a File keeps its Client's chunk pool open
// after the last reference to the Client is gone, so writes that need
// new chunks still get them. Its mount reaches no Client here.
func TestFileOutlivesItsClient(t *testing.T) {
	c, err := New(Config{Dial: func(string) (net.Conn, error) { return nil, errors.New("no servers here") }})
	if err != nil {
		t.Fatal(err)
	}
	f := c.newFile(&node{view: zeroWriteView{}, mount: &mount{io: new(ioStats)}, fh: nfs.FH{1}})
	c = nil
	for range 3 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // let finalizers run
	}
	if _, err := f.WriteAt(make([]byte, 3*wireChunk), 0); err != nil {
		t.Fatalf("WriteAt on a File whose Client was dropped: %v", err)
	}
	f.discard()
}
