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

// TestWriteAtZeroProgress writes through a window of zero, where every
// chunk is acknowledged before WriteAt returns: a zero-byte
// acknowledgment must end the call with io.ErrShortWrite and no bytes
// counted as written.
func TestWriteAtZeroProgress(t *testing.T) {
	f := &File{node: &node{view: zeroWriteView{}, mount: &mount{io: new(ioStats)}, fh: nfs.FH{1}}}
	n, err := f.WriteAt(make([]byte, 100), 0)
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want io.ErrShortWrite", err)
	}
	if n != 0 {
		t.Fatalf("n = %d, want 0", n)
	}
}
