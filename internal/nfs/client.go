package nfs

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// ClientConfig selects the caching behaviour of a client.
type ClientConfig struct {
	// UseLeases honors server-granted attribute leases, caching
	// attributes for the full lease. This is the SFS enhanced-caching
	// mode (paper §3.3); without it the client caches nothing, as NFS 3
	// run with no attribute cache.
	UseLeases bool
	// AccessCache caches ACCESS results per principal — the second
	// SFS caching enhancement.
	AccessCache bool
	// DataCacheBytes bounds the lease-coherent data block cache
	// shared by every view of the connection: 8 KB-aligned blocks,
	// valid only while the file's attribute entry is live, evicted
	// CLOCK-wise past the budget. Zero selects DefaultDataCacheBytes;
	// negative disables data caching. Without leases the cache never
	// serves: block lifetime is bounded by attribute lifetime, and
	// there is none.
	DataCacheBytes int64
	// Auth supplies per-call credentials; nil means anonymous.
	Auth func() sunrpc.OpaqueAuth
	// Trace receives a span for every call the client makes (see
	// stats.StageClock); nil calls untraced, at the cost of one nil
	// check per call. Callbacks from the server are never traced.
	Trace *stats.TraceRing
}

// Stats counts the RPCs that actually crossed the wire, and the cache
// hits that avoided one. The paper attributes much of SFS's MAB
// performance to caching that "reduces the number of RPCs that need
// to travel over the network".
type Stats struct {
	Calls      uint64 // RPCs sent
	AttrHits   uint64 // GETATTRs avoided
	AccessHits uint64 // ACCESSes avoided
	Invals     uint64 // callbacks received

	NameHits     uint64 // LOOKUPs avoided
	NameInstalls uint64 // names learned from a reply other than LOOKUP's
	Forgets      uint64 // handles dropped: callbacks, own mutations, error paths
	Swept        uint64 // records reclaimed after every lease in them expired
	Records      uint64 // handles the lease cache currently holds a record for

	DataHits           uint64 // READs served from the data block cache
	DataMisses         uint64 // cacheable READs that went to the wire
	DataBytesCached    uint64 // bytes currently held by the data cache
	Evictions          uint64 // blocks evicted past the byte budget
	DataBypassed       uint64 // pipeline blocks of files larger than the budget left uncached
	SingleFlightShared uint64 // cold-block READs joined to another reader's flight
	CacheLocks         uint64 // cache lock acquisitions (read + write)
	CacheContended     uint64 // acquisitions that found the lock held
}

// record is everything the client holds about one file handle: its
// attributes while their lease runs, what each principal may do to it,
// and — for a directory — the names known to live in it. Forgetting a
// handle is deleting its record.
type record struct {
	attr    Fattr
	expires time.Time     // of attr; zero when none are held
	access  []accessEntry // one per principal that asked
	names   map[string]nameEntry
}

type accessEntry struct {
	principal string
	granted   uint32 // bits known granted
	checked   uint32 // bits known (granted or denied)
	expires   time.Time
}

// nameEntry binds a name in a directory to a handle for as long as the
// directory's lease, granted by the reply that taught us the name, runs.
type nameEntry struct {
	fh      FH
	expires time.Time
}

// minSweep is the table size below which expired records are not worth
// a sweep.
const minSweep = 256

// clientCore is the state shared by every per-user view of one
// connection: the transport, the lease cache (safe to share between
// mutually distrustful users because the pathname's HostID already
// names the server key — the point of §5.1's AFS comparison; access
// results alone are kept per principal), and the statistics.
type clientCore struct {
	cfg  ClientConfig
	peer *sunrpc.Client

	mu   sync.RWMutex
	recs map[string]*record // keyed by handle
	// sweptAt is the table size the last sweep left; lock sweeps again
	// once the table has doubled, so reclaiming expired records costs
	// O(1) per record inserted.
	sweptAt int
	// dc caches file data blocks (nil when disabled); flights is the
	// single-flight table collapsing concurrent cold-block READs.
	dc      *dataCache
	flights map[string]*readFlight
	// invalEpoch advances on every forget (dropLocked of an own victim
	// aside) and on truncation. A reply may only add a data block or a
	// name if the epoch its call was issued under is still current —
	// otherwise an invalidation that raced the RPC (the read loop hands
	// the reply to its caller, then dispatches the callback; the
	// callback may run first) would be undone by a stale reply.
	invalEpoch atomic.Uint64
	// writeEpoch advances whenever an acknowledged WRITE is folded into
	// the cache. A READ issued before that — by another goroutine, for
	// the same block — may carry the bytes the write replaced, and its
	// reply may be processed after the write's: it must not populate
	// either, or the writer would read stale data back out of the
	// cache. READ paths therefore capture readEpoch, which moves with
	// both counters; writes keep checking invalEpoch alone, so
	// pipelined writes do not disqualify each other.
	writeEpoch atomic.Uint64

	calls        atomic.Uint64
	attrHits     atomic.Uint64
	accessHits   atomic.Uint64
	invals       atomic.Uint64
	nameHits     atomic.Uint64
	nameInstalls atomic.Uint64
	forgets      atomic.Uint64
	swept        atomic.Uint64
	dataHits     atomic.Uint64
	dataMisses   atomic.Uint64
	evictions    atomic.Uint64
	bypassed     atomic.Uint64
	sfShared     atomic.Uint64
	cacheLocks   atomic.Uint64
	contended    atomic.Uint64
}

// lock and rlock wrap the cache mutex with the same TryLock-first
// contention accounting the server's vfs_locks counters use: a failed
// try means another goroutine held the lock when we arrived. Every
// writer enters through lock, holding no record yet, which makes it the
// one safe place to sweep.
func (core *clientCore) lock() {
	if !core.mu.TryLock() {
		core.contended.Add(1)
		core.mu.Lock()
	}
	core.cacheLocks.Add(1)
	if len(core.recs) >= 2*core.sweptAt {
		core.sweep()
	}
}

// sweep reclaims what lease expiry alone left behind: names, and whole
// records (with their data blocks) once nothing in them is live — files
// another client removed, handles nobody asked about again.
func (core *clientCore) sweep() {
	now := time.Now()
	for key, r := range core.recs {
		dead := !now.Before(r.expires)
		for _, e := range r.access {
			dead = dead && !now.Before(e.expires)
		}
		for name, e := range r.names {
			if !now.Before(e.expires) {
				delete(r.names, name)
			}
		}
		if dead && len(r.names) == 0 {
			delete(core.recs, key)
			if core.dc != nil {
				core.dc.dropFileLocked(key)
			}
			core.swept.Add(1)
		}
	}
	core.sweptAt = max(len(core.recs), minSweep)
}

// lockSince takes the write lock to fold in the reply to a call issued
// at epoch, and reports whether the cache is as that call left it: no
// invalidation has moved invalEpoch since.
func (core *clientCore) lockSince(epoch uint64) (fresh bool, now time.Time) {
	core.lock()
	return core.invalEpoch.Load() == epoch, time.Now()
}

func (core *clientCore) rlock() {
	if !core.mu.TryRLock() {
		core.contended.Add(1)
		core.mu.RLock()
	}
	core.cacheLocks.Add(1)
}

// Client is one principal's view of a connection. Views created with
// WithAuth share the transport and attribute cache but carry their
// own credentials and access-cache namespace.
type Client struct {
	core *clientCore
	// principal namespaces the access cache; views for different
	// users must never share access-check results.
	principal string
	auth      func() sunrpc.OpaqueAuth
}

// Dial starts a client on conn. The connection also receives
// invalidation callbacks from SFS-enhanced servers.
func Dial(conn io.ReadWriteCloser, cfg ClientConfig) *Client {
	core := &clientCore{
		cfg:     cfg,
		recs:    make(map[string]*record),
		sweptAt: minSweep,
		flights: make(map[string]*readFlight),
	}
	if cfg.DataCacheBytes >= 0 {
		max := cfg.DataCacheBytes
		if max == 0 {
			max = DefaultDataCacheBytes
		}
		core.dc = &dataCache{
			max:   max,
			files: make(map[string]map[uint64]*dataBlock),
			auth:  make(map[string]map[string]struct{}),
		}
	}
	cb := sunrpc.NewServer()
	cb.Register(Program, Version, func(proc uint32, _ sunrpc.OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		if proc != ProcInvalidate {
			return nil, sunrpc.ErrProcUnavail
		}
		var a InvalidateArgs
		if err := args.Decode(&a); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		// Counted after its effect: a reader who sees the count sees
		// the handle forgotten.
		core.forget(a.FH)
		core.invals.Add(1)
		return StatusRes{Status: OK}, nil
	})
	core.peer = sunrpc.NewPeer(conn, cb, cfg.Trace)
	auth := cfg.Auth
	if auth == nil {
		auth = sunrpc.NoAuth
	}
	return &Client{core: core, principal: "", auth: auth}
}

// WithAuth returns a view of the same connection for another
// principal: shared transport, shared attribute cache, separate
// access cache and credentials.
func (c *Client) WithAuth(principal string, auth func() sunrpc.OpaqueAuth) *Client {
	if auth == nil {
		auth = sunrpc.NoAuth
	}
	return &Client{core: c.core, principal: principal, auth: auth}
}

// Close tears down the transport (affects all views).
func (c *Client) Close() error { return c.core.peer.Close() }

// Done is closed when the transport fails.
func (c *Client) Done() <-chan struct{} { return c.core.peer.Done() }

// Stats returns a snapshot of the connection-wide counters.
func (c *Client) Stats() Stats {
	st := Stats{
		Calls:              c.core.calls.Load(),
		AttrHits:           c.core.attrHits.Load(),
		AccessHits:         c.core.accessHits.Load(),
		Invals:             c.core.invals.Load(),
		NameHits:           c.core.nameHits.Load(),
		NameInstalls:       c.core.nameInstalls.Load(),
		Forgets:            c.core.forgets.Load(),
		Swept:              c.core.swept.Load(),
		DataHits:           c.core.dataHits.Load(),
		DataMisses:         c.core.dataMisses.Load(),
		Evictions:          c.core.evictions.Load(),
		DataBypassed:       c.core.bypassed.Load(),
		SingleFlightShared: c.core.sfShared.Load(),
		CacheLocks:         c.core.cacheLocks.Load(),
		CacheContended:     c.core.contended.Load(),
	}
	if c.core.dc != nil {
		st.DataBytesCached = uint64(c.core.dc.size.Load())
	}
	c.core.mu.RLock()
	st.Records = uint64(len(c.core.recs))
	c.core.mu.RUnlock()
	return st
}

func (c *Client) call(proc uint32, args, res interface{}) error {
	c.core.calls.Add(1)
	return c.core.peer.Call(Program, Version, proc, c.auth(), args, res)
}

// forget drops everything held for a handle, for every principal: its
// attributes, its access results, the names in it (when it is a
// directory) and every cached data block — attribute lifetime bounds
// block lifetime, so this one choke point is the cache's whole
// coherence protocol. The epoch bump fences replies still in flight.
func (core *clientCore) forget(fh FH) {
	core.lock()
	core.forgetLocked(fh)
	core.mu.Unlock()
}

func (core *clientCore) forgetLocked(fh FH) {
	core.invalEpoch.Add(1)
	core.dropLocked(fh)
}

// dropLocked forgets without the fence: for the victim of this client's
// own REMOVE or RENAME, where the only replies it could make stale are
// ones the caller itself raced against its mutation, and moving the
// epoch would void every READ and name in flight on unrelated handles.
func (core *clientCore) dropLocked(fh FH) {
	core.forgets.Add(1)
	delete(core.recs, string(fh))
	if core.dc != nil {
		core.dc.dropFileLocked(string(fh))
	}
}

// endFlight publishes a finished flight to its joiners and retires it
// from the table — unless a write to the block already detached it
// (noteWrite), in which case the entry there is a newer flight's.
func (core *clientCore) endFlight(key string, fl *readFlight) {
	core.lock()
	if core.flights[key] == fl {
		delete(core.flights, key)
	}
	core.mu.Unlock()
	close(fl.done)
}

// readEpoch is what a READ captures at issue and populate re-checks:
// both counters only grow, so their sum is unchanged exactly when
// neither moved.
func (core *clientCore) readEpoch() uint64 {
	return core.invalEpoch.Load() + core.writeEpoch.Load()
}

// recFor returns fh's record, making an empty one if none is held.
// Caller holds the write lock.
func (core *clientCore) recFor(fh FH) *record {
	r := core.recs[string(fh)]
	if r == nil {
		r = &record{}
		core.recs[string(fh)] = r
	}
	return r
}

// live returns fh's record while its attributes are held and current,
// else nil. Caller holds the lock in either mode.
func (core *clientCore) live(fh FH, now time.Time) *record {
	if r := core.recs[string(fh)]; r != nil && now.Before(r.expires) {
		return r
	}
	return nil
}

func (r *record) accessOf(principal string) *accessEntry {
	for i := range r.access {
		if r.access[i].principal == principal {
			return &r.access[i]
		}
	}
	return nil
}

// takeLocked unbinds name in dir and returns what it was bound to, the
// zero entry if nothing. An entry past its lease still names the handle
// the name most likely had, which is reason enough to forget that
// handle but never to bind it again: whoever changed the directory
// since owed us no callback.
func (core *clientCore) takeLocked(dir FH, name string) nameEntry {
	d := core.recs[string(dir)]
	if d == nil {
		return nameEntry{}
	}
	e := d.names[name]
	delete(d.names, name)
	return e
}

// bindLocked binds name in dir to fh, if it may: a binding is only as
// good as our lease on the directory, so the reply that carried it
// must have granted one (grant is the attributes it did so with), and
// no invalidation may have overtaken the call (fresh: invalEpoch has
// not moved since it was issued). Otherwise the name is left unbound.
// Returns how many names it installed.
func (c *Client) bindLocked(dir FH, name string, fh FH, grant *Fattr, fresh bool, now time.Time) uint64 {
	ttl := c.lease(grant)
	if !fresh || ttl <= 0 {
		c.core.takeLocked(dir, name)
		return 0
	}
	d := c.core.recFor(dir)
	if d.names == nil {
		d.names = make(map[string]nameEntry)
	}
	d.names[name] = nameEntry{fh: fh, expires: now.Add(ttl)}
	return 1
}

// remember stores attributes for the lease the server granted with
// them; outside lease mode it stores nothing. A reply without the
// attributes it should carry means the server could not read them, and
// the handle is forgotten — for the directory of a mutating reply
// (NFS3 wcc_data), names and all.
func (c *Client) remember(fh FH, attr *Fattr) {
	if attr != nil && c.lease(attr) <= 0 {
		return
	}
	c.core.lock()
	c.rememberLocked(fh, attr, time.Now())
	c.core.mu.Unlock()
}

func (c *Client) rememberLocked(fh FH, attr *Fattr, now time.Time) {
	if attr == nil {
		c.core.forgetLocked(fh)
	} else if ttl := c.lease(attr); ttl > 0 {
		r := c.core.recFor(fh)
		r.attr, r.expires = *attr, now.Add(ttl)
	}
}

// lease is the term the server granted with attr; zero outside lease
// mode.
func (c *Client) lease(attr *Fattr) time.Duration {
	if c.core.cfg.UseLeases && attr != nil && attr.LeaseMS > 0 {
		return time.Duration(attr.LeaseMS) * time.Millisecond
	}
	return 0
}

// MountRoot fetches the root file handle.
func (c *Client) MountRoot() (FH, Fattr, error) {
	var res MountRootRes
	if err := c.call(ProcMountRoot, nil, &res); err != nil {
		return nil, Fattr{}, err
	}
	if err := StatusErr(res.Status); err != nil {
		return nil, Fattr{}, err
	}
	c.remember(res.Root, res.Attr)
	return res.Root, deref(res.Attr), nil
}

func deref(a *Fattr) Fattr {
	if a == nil {
		return Fattr{}
	}
	return *a
}

// GetAttr returns attributes, from cache when fresh.
func (c *Client) GetAttr(fh FH) (Fattr, error) {
	c.core.rlock()
	if r := c.core.live(fh, time.Now()); r != nil {
		attr := r.attr
		c.core.mu.RUnlock()
		c.core.attrHits.Add(1)
		return attr, nil
	}
	c.core.mu.RUnlock()
	var res AttrRes
	if err := c.call(ProcGetAttr, FHArgs{FH: fh}, &res); err != nil {
		return Fattr{}, err
	}
	if err := StatusErr(res.Status); err != nil {
		return Fattr{}, err
	}
	c.remember(fh, res.Attr)
	return deref(res.Attr), nil
}

// SetAttr applies attribute changes.
func (c *Client) SetAttr(args SetAttrArgs) (Fattr, error) {
	var res AttrRes
	if err := c.call(ProcSetAttr, args, &res); err != nil {
		return Fattr{}, err
	}
	if err := StatusErr(res.Status); err != nil {
		c.core.forget(args.FH)
		return Fattr{}, err
	}
	if args.SetSize != nil {
		// Truncation keeps the attributes (the reply's are fresh) but
		// not the bytes.
		c.core.dropFileBlocks(args.FH)
	}
	c.remember(args.FH, res.Attr)
	return deref(res.Attr), nil
}

// Lookup resolves name in dir. In lease mode a name some earlier reply
// bound is served from the cache together with the child's attributes,
// so a warm pathname walk needs no RPCs at all.
func (c *Client) Lookup(dir FH, name string) (FH, Fattr, error) {
	core := c.core
	if core.cfg.UseLeases {
		now := time.Now()
		core.rlock()
		if d := core.recs[string(dir)]; d != nil {
			if e, ok := d.names[name]; ok && now.Before(e.expires) {
				if r := core.live(e.fh, now); r != nil {
					attr := r.attr
					core.mu.RUnlock()
					core.attrHits.Add(1)
					core.nameHits.Add(1)
					return e.fh, attr, nil
				}
			}
		}
		core.mu.RUnlock()
	}
	epoch := core.invalEpoch.Load()
	var res LookupRes
	if err := c.call(ProcLookup, DirOpArgs{Dir: dir, Name: name}, &res); err != nil {
		return nil, Fattr{}, err
	}
	if err := StatusErr(res.Status); err != nil {
		return nil, Fattr{}, err
	}
	// LOOKUP leases the directory along with the child, for the term
	// the child's attributes state.
	fresh, now := core.lockSince(epoch)
	c.rememberLocked(res.FH, res.Attr, now)
	c.bindLocked(dir, name, res.FH, res.Attr, fresh, now)
	core.mu.Unlock()
	return res.FH, deref(res.Attr), nil
}

// Access checks permission bits, using the per-principal access cache
// when enabled.
func (c *Client) Access(fh FH, want uint32) (uint32, error) {
	core := c.core
	if core.cfg.AccessCache {
		now := time.Now()
		core.rlock()
		if r := core.recs[string(fh)]; r != nil {
			if e := r.accessOf(c.principal); e != nil && now.Before(e.expires) && e.checked&want == want {
				granted := e.granted & want
				core.mu.RUnlock()
				core.accessHits.Add(1)
				return granted, nil
			}
		}
		core.mu.RUnlock()
	}
	var res AccessRes
	if err := c.call(ProcAccess, AccessArgs{FH: fh, Access: want}, &res); err != nil {
		return 0, err
	}
	if err := StatusErr(res.Status); err != nil {
		return 0, err
	}
	core.lock()
	now := time.Now()
	c.rememberLocked(fh, res.Attr, now)
	if ttl := c.lease(res.Attr); core.cfg.AccessCache && ttl > 0 {
		r := core.recFor(fh)
		e := r.accessOf(c.principal)
		if e == nil {
			r.access = append(r.access, accessEntry{principal: c.principal})
			e = &r.access[len(r.access)-1]
		}
		e.granted |= res.Access & want
		e.granted &^= want &^ res.Access
		e.checked |= want
		e.expires = now.Add(ttl)
	}
	core.mu.Unlock()
	return res.Access, nil
}

// Readlink fetches a symbolic link target.
func (c *Client) Readlink(fh FH) (string, error) {
	var res ReadlinkRes
	if err := c.call(ProcReadlink, FHArgs{FH: fh}, &res); err != nil {
		return "", err
	}
	if err := StatusErr(res.Status); err != nil {
		return "", err
	}
	return res.Target, nil
}

// Read fetches up to count bytes at offset. With the data cache
// enabled, single-block requests are served from memory while the
// file's attribute entry is live; cold full blocks go through the
// single-flight table so concurrent readers cost one READ. The
// returned slice may alias the cache — callers must not modify it.
func (c *Client) Read(fh FH, offset uint64, count uint32) ([]byte, bool, error) {
	if data, eof, ok, _ := c.dataLookup(fh, offset, count); ok {
		return data, eof, nil
	}
	fin, err := c.readStartCold(fh, offset, count)
	if err != nil {
		return nil, false, err
	}
	return fin()
}

// ReadStart issues an asynchronous READ and returns a future that
// yields its result. Multiple futures may be outstanding on the same
// channel — XIDs match replies to calls — which is how sequential
// reads overlap server work with wire time. Every future returned
// must be called exactly once, or the reply slot leaks. Cache-warm
// requests return an immediate future with no RPC; completions of
// cold full-block reads populate the cache, so the read-ahead
// pipeline doubles as the cache filler — for files within the cache
// budget: a larger file's replies go to their caller alone. Futures
// must be finished in the order they were started when several cover
// the same blocks.
func (c *Client) ReadStart(fh FH, offset uint64, count uint32) (func() ([]byte, bool, error), error) {
	data, eof, ok, streamed := c.dataLookup(fh, offset, count)
	if ok {
		return func() ([]byte, bool, error) { return data, eof, nil }, nil
	}
	if !streamed {
		return c.readStartCold(fh, offset, count)
	}
	fin, err := c.readStartWire(fh, offset, count)
	if err != nil {
		return nil, err
	}
	return func() ([]byte, bool, error) {
		data, eof, err := fin()
		if err == nil {
			c.core.bypassed.Add(1)
		}
		return data, eof, err
	}, nil
}

// readStartCold issues the READ a cache miss costs.
func (c *Client) readStartCold(fh FH, offset uint64, count uint32) (func() ([]byte, bool, error), error) {
	core := c.core
	if core.dc != nil && offset%DataBlockSize == 0 && count == DataBlockSize {
		return c.readStartShared(fh, offset)
	}
	epoch := core.readEpoch()
	fin, err := c.readStartWire(fh, offset, count)
	if err != nil || core.dc == nil {
		return fin, err
	}
	return func() ([]byte, bool, error) {
		data, eof, err := fin()
		if err == nil {
			c.populate(fh, offset, data, eof, epoch)
		}
		return data, eof, err
	}, nil
}

// readStartWire is the uncached asynchronous READ.
func (c *Client) readStartWire(fh FH, offset uint64, count uint32) (func() ([]byte, bool, error), error) {
	c.core.calls.Add(1)
	ch, err := c.core.peer.Start(Program, Version, ProcRead, c.auth(), ReadArgs{FH: fh, Offset: offset, Count: count})
	if err != nil {
		return nil, err
	}
	return func() ([]byte, bool, error) {
		var res ReadRes
		if err := c.core.peer.Finish(ch, &res); err != nil {
			return nil, false, err
		}
		if err := StatusErr(res.Status); err != nil {
			return nil, false, err
		}
		c.remember(fh, res.Attr)
		return res.Data, res.EOF, nil
	}, nil
}

// readStartShared is ReadStart's single-flight path for cold full
// blocks. The leader's future resolves the flight; joiners' futures
// wait on it. Deadlock-free as long as callers finish futures in
// start order: a joiner can only exist after its leader's flight was
// registered, so wait-for cycles between pipelines are impossible.
func (c *Client) readStartShared(fh FH, offset uint64) (func() ([]byte, bool, error), error) {
	core := c.core
	key := flightKey(c.principal, fh, offset/DataBlockSize)
	core.lock()
	if fl, ok := core.flights[key]; ok {
		core.mu.Unlock()
		core.sfShared.Add(1)
		return func() ([]byte, bool, error) {
			<-fl.done
			return fl.data, fl.eof, fl.err
		}, nil
	}
	fl := &readFlight{done: make(chan struct{})}
	core.flights[key] = fl
	epoch := core.readEpoch()
	core.mu.Unlock()
	resolve := func(data []byte, eof bool, err error) {
		fl.data, fl.eof, fl.err = data, eof, err
		core.endFlight(key, fl)
	}
	fin, err := c.readStartWire(fh, offset, DataBlockSize)
	if err != nil {
		resolve(nil, false, err)
		return nil, err
	}
	return func() ([]byte, bool, error) {
		data, eof, err := fin()
		if err == nil {
			c.populate(fh, offset, data, eof, epoch)
		}
		resolve(data, eof, err)
		return data, eof, err
	}, nil
}

// Write stores data at offset with the given stability. Acknowledged
// bytes are folded into the data cache so re-reads of freshly written
// data stay off the wire.
func (c *Client) Write(fh FH, offset uint64, data []byte, stable uint32) (uint32, error) {
	epoch := c.core.invalEpoch.Load()
	var res WriteRes
	if err := c.call(ProcWrite, WriteArgs{FH: fh, Offset: offset, Stable: stable, Data: data}, &res); err != nil {
		return 0, err
	}
	if err := StatusErr(res.Status); err != nil {
		c.core.forget(fh)
		return 0, err
	}
	c.remember(fh, res.Attr)
	c.noteWrite(fh, offset, len(data), data, epoch, false)
	return res.Count, nil
}

// WriteStart issues an asynchronous WRITE and returns a future that
// yields the acknowledged byte count and the server's write verifier.
// The data is fully serialized onto the wire buffer before WriteStart
// returns, so the caller may reuse its slice immediately. As with
// ReadStart, every future returned must eventually be called, or the
// reply slot leaks. Like ReadStart's, its completions fill the cache
// only for files within the budget; over a larger file they drop the
// blocks they overlap.
func (c *Client) WriteStart(fh FH, offset uint64, data []byte, stable uint32) (func() (uint32, uint64, error), error) {
	core := c.core
	epoch := core.invalEpoch.Load()
	core.calls.Add(1)
	ch, err := core.peer.Start(Program, Version, ProcWrite, c.auth(), WriteArgs{FH: fh, Offset: offset, Stable: stable, Data: data})
	if err != nil {
		return nil, err
	}
	// The cache copy is taken before WriteStart returns: write-behind
	// recycles its pooled chunks as soon as it regains control, so
	// the future must not look at data.
	var cached []byte
	n := len(data)
	streamed := false
	if core.dc != nil && n > 0 {
		core.rlock()
		streamed = core.dc.exceeds(core.live(fh, time.Now()))
		core.mu.RUnlock()
		if !streamed {
			cached = append([]byte(nil), data...)
		}
	}
	return func() (uint32, uint64, error) {
		var res WriteRes
		if err := c.core.peer.Finish(ch, &res); err != nil {
			return 0, 0, err
		}
		if err := StatusErr(res.Status); err != nil {
			c.core.forget(fh)
			return 0, 0, err
		}
		c.remember(fh, res.Attr)
		c.noteWrite(fh, offset, n, cached, epoch, true)
		if streamed {
			core.bypassed.Add(1)
		}
		return res.Count, res.Verf, nil
	}, nil
}

// Create makes a regular file.
func (c *Client) Create(dir FH, name string, mode uint32, exclusive bool) (FH, Fattr, error) {
	return c.newEntry(ProcCreate, CreateArgs{Dir: dir, Name: name, Mode: mode, Exclusive: exclusive}, dir, name)
}

// Mkdir makes a directory.
func (c *Client) Mkdir(dir FH, name string, mode uint32) (FH, Fattr, error) {
	return c.newEntry(ProcMkdir, MkdirArgs{Dir: dir, Name: name, Mode: mode}, dir, name)
}

// Symlink creates a symbolic link.
func (c *Client) Symlink(dir FH, name, target string) (FH, Fattr, error) {
	return c.newEntry(ProcSymlink, SymlinkArgs{Dir: dir, Name: name, Target: target}, dir, name)
}

// newEntry is CREATE, MKDIR and SYMLINK: the reply carries the new
// node and the directory after the change, each with a lease, so the
// name is bound without the LOOKUP that would otherwise follow.
func (c *Client) newEntry(proc uint32, args interface{}, dir FH, name string) (FH, Fattr, error) {
	core := c.core
	epoch := core.invalEpoch.Load()
	var res LookupRes
	if err := c.call(proc, args, &res); err != nil {
		return nil, Fattr{}, err
	}
	if err := StatusErr(res.Status); err != nil {
		core.forget(dir)
		return nil, Fattr{}, err
	}
	fresh, now := core.lockSince(epoch)
	c.rememberLocked(dir, res.DirAttr, now)
	c.rememberLocked(res.FH, res.Attr, now)
	core.nameInstalls.Add(c.bindLocked(dir, name, res.FH, res.DirAttr, fresh, now))
	core.mu.Unlock()
	return res.FH, deref(res.Attr), nil
}

// Remove unlinks a file.
func (c *Client) Remove(dir FH, name string) error { return c.unlink(ProcRemove, dir, name) }

// Rmdir removes a directory.
func (c *Client) Rmdir(dir FH, name string) error { return c.unlink(ProcRmdir, dir, name) }

// unlink is REMOVE and RMDIR. The reply names no handle, but the name
// cache usually knows which one the name was bound to: that node just
// changed (nlink, ctime) or died, and the server's invalidate skips
// the session that caused it, so the actor forgets it here.
func (c *Client) unlink(proc uint32, dir FH, name string) error {
	core := c.core
	var res StatusRes
	if err := c.call(proc, DirOpArgs{Dir: dir, Name: name}, &res); err != nil {
		return err
	}
	if err := StatusErr(res.Status); err != nil {
		core.forget(dir)
		return err
	}
	core.lock()
	if victim := core.takeLocked(dir, name).fh; victim != nil {
		core.dropLocked(victim)
	}
	c.rememberLocked(dir, res.DirAttr, time.Now())
	core.mu.Unlock()
	return nil
}

// Rename moves a name. A binding still under its lease moves with it —
// the server does not touch the moved node, so what is cached about it
// stays exact — and a node the rename replaced is forgotten as unlink
// forgets its victim.
func (c *Client) Rename(fromDir FH, fromName string, toDir FH, toName string) error {
	core := c.core
	epoch := core.invalEpoch.Load()
	var res StatusRes
	if err := c.call(ProcRename, RenameArgs{FromDir: fromDir, FromName: fromName, ToDir: toDir, ToName: toName}, &res); err != nil {
		return err
	}
	if err := StatusErr(res.Status); err != nil {
		core.forget(fromDir)
		core.forget(toDir)
		return err
	}
	fresh, now := core.lockSince(epoch)
	moved := core.takeLocked(fromDir, fromName)
	if over := core.takeLocked(toDir, toName).fh; over != nil {
		core.dropLocked(over)
	}
	c.rememberLocked(fromDir, res.DirAttr, now)
	c.rememberLocked(toDir, res.DirAttr2, now)
	if now.Before(moved.expires) {
		core.nameInstalls.Add(c.bindLocked(toDir, toName, moved.fh, res.DirAttr2, fresh, now))
	}
	core.mu.Unlock()
	return nil
}

// Link creates a hard link.
func (c *Client) Link(file, dir FH, name string) error {
	core := c.core
	epoch := core.invalEpoch.Load()
	var res StatusRes
	if err := c.call(ProcLink, LinkArgs{File: file, Dir: dir, Name: name}, &res); err != nil {
		return err
	}
	err := StatusErr(res.Status)
	fresh, now := core.lockSince(epoch)
	core.forgetLocked(file) // nlink and ctime moved
	if err != nil {
		core.forgetLocked(dir)
	} else {
		c.rememberLocked(dir, res.DirAttr, now)
		core.nameInstalls.Add(c.bindLocked(dir, name, file, res.DirAttr, fresh, now))
	}
	core.mu.Unlock()
	return err
}

// ReadDir lists entries after cookie. Every entry comes with its handle
// and leased attributes (READDIRPLUS style) under a lease on the
// directory, so each is bound as if it had been looked up.
func (c *Client) ReadDir(dir FH, cookie uint64, count uint32) ([]Entry, bool, error) {
	core := c.core
	epoch := core.invalEpoch.Load()
	var res ReadDirRes
	if err := c.call(ProcReadDir, ReadDirArgs{Dir: dir, Cookie: cookie, Count: count}, &res); err != nil {
		return nil, false, err
	}
	if err := StatusErr(res.Status); err != nil {
		return nil, false, err
	}
	fresh, now := core.lockSince(epoch)
	var installed uint64
	for _, e := range res.Entries {
		c.rememberLocked(e.FH, e.Attr, now)
		installed += c.bindLocked(dir, e.Name, e.FH, e.Attr, fresh, now)
	}
	core.nameInstalls.Add(installed)
	core.mu.Unlock()
	return res.Entries, res.EOF, nil
}

// Commit flushes unstable writes and returns the write verifier the
// data is now stable under. Callers holding unstable data compare it
// with the verifier their WRITE replies carried: a difference means
// the server rebooted in between and the data must be retransmitted.
func (c *Client) Commit(fh FH) (uint64, error) {
	var res CommitRes
	if err := c.call(ProcCommit, FHArgs{FH: fh}, &res); err != nil {
		return 0, err
	}
	if err := StatusErr(res.Status); err != nil {
		return 0, err
	}
	c.remember(fh, res.Attr)
	return res.Verf, nil
}

// IDNames maps numeric IDs to the server's user and group names (the
// libsfs mapping service). Unknown IDs come back as empty strings.
func (c *Client) IDNames(uids, gids []uint32) ([]string, []string, error) {
	if uids == nil {
		uids = []uint32{}
	}
	if gids == nil {
		gids = []uint32{}
	}
	var res IDNamesRes
	if err := c.call(ProcIDNames, IDNamesArgs{UIDs: uids, GIDs: gids}, &res); err != nil {
		return nil, nil, err
	}
	if err := StatusErr(res.Status); err != nil {
		return nil, nil, err
	}
	return res.UserNames, res.GroupNames, nil
}

// Call issues a raw RPC on the shared transport with this view's
// credentials; the SFS client uses it for the login protocol that
// shares the file connection.
func (c *Client) Call(prog, vers, proc uint32, args, res interface{}) error {
	c.core.calls.Add(1)
	return c.core.peer.Call(prog, vers, proc, c.auth(), args, res)
}
