package client

import (
	"errors"
	"io"
	"testing"

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
	f := &File{node: &node{view: zeroWriteView{}, mount: &mount{io: new(ioStats)}, fh: nfs.FH{1}}}
	if n, err := f.WriteAt(make([]byte, 100), 0); err != nil || n != 100 {
		t.Fatalf("WriteAt = %d, %v; want 100 bytes buffered", n, err)
	}
	if err := f.Flush(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Flush err = %v, want io.ErrShortWrite", err)
	}
}
