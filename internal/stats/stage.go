package stats

import (
	"fmt"
	"strings"
	"time"
)

// Stage names one segment of an RPC's life, from the client encoding
// the call to the client decoding the reply. The client and the server
// each record the stages they can observe directly; a span therefore
// carries either the client-side stages (cli_*, wire) or the
// server-side ones (srv_open .. reply_write), never both — the two
// sides are correlated offline by xid.
type Stage int

// The stage taxonomy (DESIGN.md §13). Client side: cli_encode is the
// XDR marshaling of the call, cli_seal the secure-channel MAC+encrypt,
// cli_write the record framing and transport write (on a shaped
// transport this includes the sender-side wire model), wire the gap
// between the write returning and the reply record being delivered
// (network round trip plus the server's entire turnaround), and
// cli_decode the reply open (MAC verify + decrypt) plus XDR decode.
// Server side: srv_open is the record open work (decrypt + MAC verify,
// excluding idle wait for bytes), queue the wait between the record
// being read and a dispatch worker picking it up, dispatch the RPC
// decode + NFS handler + reply XDR encode (minus the vfs and fsync
// stages nested inside it), vfs the substrate data path (minus fsync),
// fsync the WAL group-commit wait (disk store only — structurally zero
// on the memory store), reply_seal the reply MAC+encrypt, and
// reply_write the reply framing and transport write.
const (
	StageCliEncode Stage = iota
	StageCliSeal
	StageCliWrite
	StageSrvOpen
	StageQueue
	StageDispatch
	StageVFS
	StageFsync
	StageReplySeal
	StageReplyWrite
	StageWire
	StageCliDecode
	// Handshake stages (DESIGN.md §14): hs_queue is the wait for a
	// negotiation-pool slot, hs_crypto the key-negotiation work itself
	// (the Rabin decrypt on a full handshake, one SHA-1 mix on a
	// resumption). They appear only in the server master's
	// connection-establishment spans, never in RPC spans.
	StageHSQueue
	StageHSCrypto
	NumStages
)

// StageNames indexes Stage values to their wire/JSON names.
var StageNames = [NumStages]string{
	"cli_encode", "cli_seal", "cli_write",
	"srv_open", "queue", "dispatch", "vfs", "fsync",
	"reply_seal", "reply_write",
	"wire", "cli_decode",
	"hs_queue", "hs_crypto",
}

// A StageClock accumulates per-stage durations for one RPC. It is
// allocated only when tracing is on; every method is safe on a nil
// receiver, so instrumentation points cost a nil check when tracing
// is off. A clock is owned by one goroutine at a time (handed off with
// proper synchronization at queue boundaries); it is not
// concurrency-safe.
type StageClock struct {
	// Span is filled progressively: identity fields as they are
	// decoded, Stages and DurUS at Finish.
	Span Span

	ns      [NumStages]int64
	t0      time.Time
	tWrite  time.Time
	tArrive time.Time
}

// NewStageClock starts a clock: t0 anchors the span's total and Start
// records the wall time for offline correlation.
func NewStageClock() *StageClock {
	now := time.Now()
	return &StageClock{t0: now, Span: Span{Start: now.UnixMicro()}}
}

// Now returns the current time for a later End, or the zero time on a
// nil clock (End then ignores it).
func (c *StageClock) Now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// End charges the time since t to stage st.
func (c *StageClock) End(st Stage, t time.Time) {
	if c == nil || t.IsZero() {
		return
	}
	c.ns[st] += int64(time.Since(t))
}

// Add charges ns nanoseconds to stage st.
func (c *StageClock) Add(st Stage, ns int64) {
	if c == nil || ns <= 0 {
		return
	}
	c.ns[st] += ns
}

// Get returns the nanoseconds charged to st so far (0 on nil).
func (c *StageClock) Get(st Stage) int64 {
	if c == nil {
		return 0
	}
	return c.ns[st]
}

// MarkWriteAt stamps the moment the call record finished writing — the
// start of the client-observed wire gap. The caller captures t before
// taking the lock that publishes it.
func (c *StageClock) MarkWriteAt(t time.Time) {
	if c != nil && !t.IsZero() {
		c.tWrite = t
	}
}

// MarkArrive stamps the reply record's delivery, charging the gap
// since MarkWriteAt to the wire stage. openNS (the channel-open work
// that ran inside record delivery) is moved from wire to cli_decode,
// where that MAC-verify/decrypt cost belongs.
func (c *StageClock) MarkArrive(openNS int64) {
	if c == nil {
		return
	}
	c.tArrive = time.Now()
	if !c.tWrite.IsZero() {
		if d := int64(c.tArrive.Sub(c.tWrite)) - openNS; d > 0 {
			c.ns[StageWire] += d
		}
	}
	if openNS > 0 {
		c.ns[StageCliDecode] += openNS
	}
}

// FinishClient seals a client-side span: total = (arrival − start) +
// whatever ran after arrival (decode), so time the reply spent parked
// in a future before the application collected it is not charged.
func (c *StageClock) FinishClient(decodeNS int64) *Span {
	if c == nil {
		return nil
	}
	c.ns[StageCliDecode] += decodeNS
	total := decodeNS
	if !c.tArrive.IsZero() {
		total += int64(c.tArrive.Sub(c.t0))
	} else {
		total += int64(time.Since(c.t0)) - decodeNS
	}
	return c.finish(total)
}

// FinishServer seals a server-side span: total = the open work that
// ran inside record delivery plus everything from record-read to the
// reply write completing.
func (c *StageClock) FinishServer() *Span {
	if c == nil {
		return nil
	}
	return c.finish(c.ns[StageSrvOpen] + int64(time.Since(c.t0)))
}

// finish converts the nanosecond ledger to the span's microsecond
// stage array and total.
func (c *StageClock) finish(totalNS int64) *Span {
	for i := 0; i < int(NumStages); i++ {
		c.Span.Stages[i] = c.ns[i] / 1e3
	}
	if totalNS < 0 {
		totalNS = 0
	}
	c.Span.DurUS = totalNS / 1e3
	return &c.Span
}

// RestartAt re-anchors the clock's total at t (the server side anchors
// at the moment the record finished reading, not at clock allocation).
func (c *StageClock) RestartAt(t time.Time) {
	if c != nil && !t.IsZero() {
		c.t0 = t
	}
}

// A StageSet aggregates spans into one log₂ latency histogram per
// stage plus one for span totals. Observes are atomic; a StageSet can
// be shared by every connection of a server.
type StageSet struct {
	total  Histogram
	stages [NumStages]Histogram
}

// Record folds one finished span into the histograms. Stages the span
// never touched (zero) are skipped, so e.g. the fsync histogram counts
// only operations that actually waited on the WAL.
func (s *StageSet) Record(sp *Span) {
	if s == nil || sp == nil {
		return
	}
	s.total.Observe(uint64(sp.DurUS))
	for i := 0; i < int(NumStages); i++ {
		if v := sp.Stages[i]; v > 0 {
			s.stages[i].Observe(uint64(v))
		}
	}
}

// StageStat is one stage's distribution in a snapshot, microseconds.
type StageStat struct {
	Count  uint64  `json:"count"`
	SumUS  uint64  `json:"sum_us"`
	MeanUS float64 `json:"mean_us,omitempty"`
	P50    uint64  `json:"p50_us"`
	P95    uint64  `json:"p95_us"`
	P99    uint64  `json:"p99_us"`
}

func stageStat(h *Histogram) StageStat {
	hs := h.Snapshot()
	return StageStat{
		Count: hs.Count, SumUS: hs.Sum, MeanUS: hs.Mean,
		P50: hs.P50, P95: hs.P95, P99: hs.P99,
	}
}

// StageSetSnapshot is the JSON form of a StageSet: the total-latency
// distribution plus every stage that recorded at least one span.
type StageSetSnapshot struct {
	Total  StageStat            `json:"total"`
	Stages map[string]StageStat `json:"stages,omitempty"`
}

// Snapshot captures the set.
func (s *StageSet) Snapshot() StageSetSnapshot {
	out := StageSetSnapshot{Total: stageStat(&s.total)}
	for i := 0; i < int(NumStages); i++ {
		st := stageStat(&s.stages[i])
		if st.Count == 0 {
			continue
		}
		if out.Stages == nil {
			out.Stages = make(map[string]StageStat, int(NumStages))
		}
		out.Stages[StageNames[i]] = st
	}
	return out
}

// Table renders the snapshot as aligned human-readable columns —
// derived quantiles instead of raw bucket dumps — for the daemons'
// stats commands. One row per recorded stage, in pipeline order, plus
// a total row.
func (s StageSetSnapshot) Table() string {
	var b strings.Builder
	row := func(name string, st StageStat) {
		fmt.Fprintf(&b, "%-12s %8d %10.1f %8d %8d %8d\n",
			name, st.Count, st.MeanUS, st.P50, st.P95, st.P99)
	}
	fmt.Fprintf(&b, "%-12s %8s %10s %8s %8s %8s\n",
		"stage", "count", "mean_us", "p50_us", "p95_us", "p99_us")
	for i := 0; i < int(NumStages); i++ {
		if st, ok := s.Stages[StageNames[i]]; ok {
			row(StageNames[i], st)
		}
	}
	row("total", s.Total)
	return b.String()
}

// Waterfall renders a span's nonzero stages as one compact log token,
// e.g. "vfs=120us fsync=3400us" — the body of the slow-span log line.
func (s *Span) Waterfall() string {
	var b strings.Builder
	for i := 0; i < int(NumStages); i++ {
		if v := s.Stages[i]; v > 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%dus", StageNames[i], v)
		}
	}
	return b.String()
}
