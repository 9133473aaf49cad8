package sunrpc

import (
	"io"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/xdr"
)

// RecordReader is SegmentWriter's receive-side twin: a transport that
// frames its own records (the secure channel) hands the RPC layer each
// record-marked message whole, instead of a byte stream for ReadRecord
// to cut up and copy out of.
type RecordReader interface {
	// ReadRecord returns the next message with its record mark checked
	// and stripped, in a slice the caller owns from then on. ok is false
	// when the bytes at hand are not one complete single-fragment
	// message; they stay queued for Read, and ReadRecord(io.Reader)
	// reassembles them.
	ReadRecord() (rec []byte, ok bool, err error)
}

// recordIn is the receive half of one connection.
type recordIn struct {
	r  io.Reader
	rr RecordReader // nil on a plain transport
	wt WorkTimer    // nil unless the transport keeps an open-work ledger
}

// next reads one record. When traced it brackets the read with the
// channel's open-work accumulator: openNS is this record's own
// decrypt+verify cost, the idle wait for bytes excluded, and tRead is
// when the record was complete. Untraced, tRead is zero.
func (in *recordIn) next(traced bool) (rec []byte, tRead time.Time, openNS int64, err error) {
	var open0 int64
	if traced && in.wt != nil {
		open0 = in.wt.OpenWorkNS()
	}
	if rec, err = in.read(); err != nil || !traced {
		return rec, tRead, 0, err
	}
	tRead = time.Now()
	if in.wt != nil {
		openNS = in.wt.OpenWorkNS() - open0
	}
	return rec, tRead, openNS, nil
}

func (in *recordIn) read() ([]byte, error) {
	if in.rr != nil {
		if rec, ok, err := in.rr.ReadRecord(); err != nil || ok {
			return rec, err
		}
	}
	return ReadRecord(in.r)
}

// call is one incoming call on its way from a read loop to a worker.
type call struct {
	rec    []byte
	met    *Metrics
	tRead  time.Time // zero: untraced
	openNS int64
}

// dispatcher is the resident worker set of one served connection. The
// peer's read loop submits each call; workers start on demand, never
// more than max, and stay for the life of the connection, so a call
// costs a hand-off to a goroutine whose stack is already grown, not a
// goroutine.
//
// Calls never run on the read loop itself: a handler that breaks a
// lease waits for a callback reply that another connection's read loop
// delivers, and two such handlers could wait on each other.
type dispatcher struct {
	srv  *Server
	peer *Client // replies go out on its transport, under its write lock
	max  int     // bound on calls read but not yet answered

	mu       sync.Mutex
	room     sync.Cond   // on mu: inflight dropped below max
	inflight int         // calls submitted and not yet answered
	idle     []chan call // parked workers, most recently parked last
	// finishing counts workers past their handler, sending the reply.
	// Such a worker is free as soon as its write returns — sooner than
	// a new goroutine would be running — so that many calls may wait
	// in pending for them. Without this a serial client, whose next
	// call can arrive before the worker that answered the last one has
	// parked, would grow the set to max one race at a time.
	finishing int
	pending   []call
	closed    bool
	wg        sync.WaitGroup
}

func newDispatcher(srv *Server, peer *Client) *dispatcher {
	d := &dispatcher{srv: srv, peer: peer, max: srv.workers}
	d.room.L = &d.mu
	return d
}

// submit hands c to a worker, blocking the read loop while max calls
// are in flight.
func (d *dispatcher) submit(c call) {
	c.met = d.srv.met.Load()
	c.met.InFlight.Inc() // read off the wire, not yet replied
	d.mu.Lock()
	for d.inflight >= d.max {
		d.room.Wait()
	}
	d.inflight++
	switch {
	case len(d.idle) > 0:
		w := d.idle[len(d.idle)-1]
		d.idle = d.idle[:len(d.idle)-1]
		d.mu.Unlock()
		w <- c
	case len(d.pending) < d.finishing:
		d.pending = append(d.pending, c)
		d.mu.Unlock()
	default:
		// Every worker is inside a handler; inflight keeps them below max.
		d.wg.Add(1)
		d.mu.Unlock()
		go d.work(c)
	}
}

func (d *dispatcher) work(c call) {
	defer d.wg.Done()
	park := make(chan call, 1)
	for {
		d.serve(c)
		d.mu.Lock()
		d.inflight--
		d.finishing--
		d.room.Signal()
		if n := len(d.pending); n > 0 {
			c = d.pending[0]
			copy(d.pending, d.pending[1:])
			d.pending[n-1] = call{}
			d.pending = d.pending[:n-1]
			d.mu.Unlock()
			continue
		}
		if d.closed {
			d.mu.Unlock()
			return
		}
		d.idle = append(d.idle, park)
		d.mu.Unlock()
		var ok bool
		if c, ok = <-park; !ok {
			return
		}
	}
}

// serve dispatches one call and sends its reply. With stage tracing on
// it keeps the call's clock: anchored when the record finished reading,
// the record's open work credited to srv_open, the queue stage ended
// here at pick-up, and the reply's cost split between reply_seal (the
// channel's MAC+encrypt work, read from its WorkTimer under the write
// lock, so the delta is this record's alone) and reply_write.
func (d *dispatcher) serve(c call) {
	met := c.met
	met.Workers.Inc()
	var clk *stats.StageClock
	if !c.tRead.IsZero() && met.Trace.Enabled() {
		clk = stats.NewStageClock()
		clk.RestartAt(c.tRead)
		clk.Add(stats.StageSrvOpen, c.openNS)
		clk.End(stats.StageQueue, c.tRead)
	}
	e := xdr.GetEncoder()
	ok, err := d.srv.dispatch(c.rec, e, clk)
	d.mu.Lock()
	d.finishing++
	d.mu.Unlock()
	if err != nil {
		d.peer.fail(err) //nolint:errcheck // the connection is over either way
		ok = false
	}
	d.peer.wmu.Lock()
	if ok {
		wt := d.peer.wt
		var seal0 int64
		if clk != nil && wt != nil {
			seal0 = wt.SealWorkNS()
		}
		t0 := clk.Now()
		err = WriteRecordEncoder(d.peer.conn, e)
		if clk != nil {
			var sealNS int64
			if wt != nil {
				sealNS = wt.SealWorkNS() - seal0
			}
			clk.Add(stats.StageReplySeal, sealNS)
			clk.Add(stats.StageReplyWrite, int64(time.Since(t0))-sealNS)
			clk.Span.Bytes += uint64(e.Len()) + 4
		}
	}
	d.peer.wmu.Unlock()
	xdr.PutEncoder(e)
	if ok && err != nil {
		d.peer.fail(err) //nolint:errcheck // the connection is over either way
	} else if ok && clk != nil {
		sp := clk.FinishServer()
		met.Stages.Record(sp)
		met.Trace.Record(*sp)
	}
	met.Workers.Dec()
	met.InFlight.Dec()
}

// close retires the workers once the read loop has ended: parked ones
// at once, the rest after the calls already read have been served.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	for _, w := range d.idle {
		close(w)
	}
	d.idle = nil
	d.mu.Unlock()
}
