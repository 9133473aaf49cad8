package sunrpc

import (
	"encoding/binary"
	"net"
)

// maxDatagram is the receive buffer of a DatagramConn: larger than any
// UDP payload, so a datagram is never cut short by the buffer.
const maxDatagram = 64 << 10

// DatagramConn carries RPC records over a connected datagram socket
// (UDP), one record per datagram, which is how the paper's NFS 3 over
// UDP baseline is reproduced. It is a RecordReader, so the RPC layer
// takes each datagram whole from ReadRecord and a datagram socket is
// one more connection on the same peer loop as a stream. It is no
// SegmentWriter: WriteRecordEncoder flattens each record into one
// Write, and so into one datagram.
type DatagramConn struct {
	net.Conn
	recv []byte // receive buffer, allocated on the first read and reused
}

// NewDatagramConn wraps a connected datagram socket.
func NewDatagramConn(c net.Conn) *DatagramConn { return &DatagramConn{Conn: c} }

// ReadRecord returns the next datagram that is exactly one whole
// single-fragment record, without its mark, in a slice of its own. Any
// other datagram — empty, cut short, padded, a fragment — is dropped,
// so a bad datagram costs only itself and never desynchronises the
// records after it. ok is true whenever err is nil. Reads happen on
// the connection's one read loop.
func (d *DatagramConn) ReadRecord() ([]byte, bool, error) {
	if d.recv == nil {
		d.recv = make([]byte, maxDatagram)
	}
	for {
		n, err := d.Conn.Read(d.recv)
		if err != nil {
			return nil, false, err
		}
		if n >= 4 && binary.BigEndian.Uint32(d.recv) == 0x80000000|uint32(n-4) {
			return append(make([]byte, 0, n-4), d.recv[4:n]...), true, nil
		}
	}
}
