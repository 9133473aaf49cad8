package sunrpc

import (
	"net"
	"sync"

	"repro/internal/xdr"
)

// DatagramConn adapts a connected packet connection (e.g. UDP) to the
// stream-oriented io.ReadWriteCloser the RPC client and server expect.
// Each Write is sent as a single datagram; Read serves bytes from the
// most recently received datagram, so record marking stays intact as
// long as every record fits in one datagram (true for NFS-sized RPCs
// over loopback, which is how the paper's NFS 3 over UDP baseline is
// reproduced).
type DatagramConn struct {
	net.Conn
	mu   sync.Mutex
	recv []byte // 64KB receive buffer, allocated once and reused
	buf  []byte // unread tail of the current datagram (aliases recv)
}

// NewDatagramConn wraps a connected datagram socket.
func NewDatagramConn(c net.Conn) *DatagramConn { return &DatagramConn{Conn: c} }

// Read serves buffered bytes from the current datagram, receiving a new
// one into the persistent receive buffer when it is empty.
func (d *DatagramConn) Read(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.buf) == 0 {
		if d.recv == nil {
			d.recv = make([]byte, 65536)
		}
		n, err := d.Conn.Read(d.recv)
		if err != nil {
			return 0, err
		}
		d.buf = d.recv[:n]
	}
	n := copy(p, d.buf)
	d.buf = d.buf[n:]
	return n, nil
}

// packetTo writes each record to addr as one datagram. It is no
// SegmentWriter, so WriteRecordEncoder flattens a reply — borrowed
// payload included — into one buffer and one Write, the one copy the
// accounting charges.
type packetTo struct {
	pc   net.PacketConn
	addr net.Addr
}

func (p packetTo) Write(b []byte) (int, error) { return p.pc.WriteTo(b, p.addr) }

// ServePacket serves RPC calls arriving as datagrams on pc, replying to
// each sender. The receive buffer is allocated once; each in-flight
// packet gets a pooled copy sized to what actually arrived, and at most
// the server's worker limit of packets are dispatched concurrently. It
// runs until pc is closed.
func (s *Server) ServePacket(pc net.PacketConn) error {
	buf := make([]byte, 65536)
	sem := make(chan struct{}, s.workers)
	for {
		n, addr, err := pc.ReadFrom(buf)
		if err != nil {
			return err
		}
		bp := getBuf()
		pkt := append((*bp)[:0], buf[:n]...)
		*bp = pkt
		sem <- struct{}{}
		go func(bp *[]byte, pkt []byte, addr net.Addr) {
			defer func() { <-sem; putBuf(bp) }()
			// Strip the record mark if present.
			if len(pkt) < 4 {
				return
			}
			e := xdr.GetEncoder()
			defer xdr.PutEncoder(e)
			if ok, err := s.dispatch(pkt[4:], e, nil); ok && err == nil { // datagram path: untraced
				WriteRecordEncoder(packetTo{pc, addr}, e) //nolint:errcheck // best-effort datagram
			}
		}(bp, pkt, addr)
	}
}
