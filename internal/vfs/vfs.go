// Package vfs implements the file system substrate underneath the SFS
// read-write server: a POSIX-style file system with inodes,
// attributes, directories, symbolic links, and Unix permission checks.
//
// In the paper's implementation the SFS server relays NFS 3 calls to a
// kernel NFS server backed by FreeBSD's FFS (paper §3). This package
// stands in for that kernel file system: the NFS server in
// internal/nfs exposes a vfs.FS over the wire, and the benchmarks use
// a bare FS as the "Local" baseline.
//
// # Storage
//
// The node tree holds the namespace and attributes; bytes and their
// durability belong to a storage backend behind two narrow interfaces
// (see internal/storage): a MetadataStore that journals every
// namespace/attribute mutation, and a BlockStore that holds file
// content. New uses storage/memstore — the original in-memory
// behavior, where journaling is a no-op — while NewWithStores accepts
// a durable pair such as storage/diskstore, whose write-ahead log is
// replayed here at open to rebuild the tree and whose boot epoch
// becomes the NFS write verifier (DESIGN.md §11).
//
// # Concurrency
//
// All methods are safe for concurrent use. The file system is sharded
// so that the data path of one file never contends with another's:
// nodes live in a NumShards-way striped table keyed by FileID, each
// stripe guarding only its slice of the id→node map, and every node
// carries its own RWMutex guarding its attributes, data, and directory
// entries. Read/Write/Commit/GetAttr touch exactly one node lock;
// namespace operations (Create/Remove/Rename/Link/...) lock the
// directories and nodes they mutate. The lock hierarchy (see
// DESIGN.md §9):
//
//  1. Node locks before shard-map locks. A shard-map lock is only ever
//     taken to look an id up (released before any node lock) or to
//     insert/delete a map entry while the affected node locks are
//     already held. No path acquires a node lock while holding a
//     shard-map lock.
//  2. Multiple node locks are acquired in ascending FileID order.
//     When an operation discovers — mid-flight — that it needs a lock
//     ordered before one it holds (a child with a lower id than its
//     directory), it releases what it holds, re-acquires in ascending
//     order, and re-validates the directory entries it read; the
//     LockStats OrderRestarts counter tracks how often that happens.
//  3. A directory entry pins its node: while a directory's lock is
//     held, every id in its children map refers to a live node,
//     because all entry-removal paths hold that directory's lock.
package vfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
)

// FileID identifies a file for the life of the file system. IDs are
// never reused, so stale handles are detectable.
type FileID uint64

// FileType enumerates node types.
type FileType uint32

// File types.
const (
	TypeReg FileType = iota + 1
	TypeDir
	TypeSymlink
)

// Mode permission bits (a subset of POSIX).
const (
	ModeRead  = 0o4
	ModeWrite = 0o2
	ModeExec  = 0o1
)

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// NumShards is the number of stripes in the node table. A power of
// two so the shard of an id is a mask, sized so that tens of
// concurrent clients rarely collide on a stripe.
const NumShards = 64

// Errors mirroring the NFS 3 status codes the server maps them to.
var (
	ErrNotFound    = errors.New("vfs: no such file or directory")
	ErrExist       = errors.New("vfs: file exists")
	ErrNotDir      = errors.New("vfs: not a directory")
	ErrIsDir       = errors.New("vfs: is a directory")
	ErrNotEmpty    = errors.New("vfs: directory not empty")
	ErrPerm        = errors.New("vfs: permission denied")
	ErrStale       = errors.New("vfs: stale file handle")
	ErrNameTooLong = errors.New("vfs: name too long")
	ErrInval       = errors.New("vfs: invalid argument")
	ErrNotSymlink  = errors.New("vfs: not a symbolic link")
	ErrIO          = errors.New("vfs: i/o error")
)

// ioErr wraps a storage-backend failure in ErrIO so the NFS layer
// maps it to NFS3ERR_IO.
func ioErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrIO, err)
}

// Cred identifies the caller for permission checks. UID 0 bypasses
// permission bits, as root does on the paper's server host.
type Cred struct {
	UID  uint32
	GIDs []uint32
}

// Anonymous is the credential used for unauthenticated access
// (authentication number zero in the SFS protocol).
var Anonymous = Cred{UID: NobodyUID, GIDs: []uint32{NobodyGID}}

// Well-known IDs for anonymous access.
const (
	NobodyUID = 65534
	NobodyGID = 65534
)

// Attr carries the attributes of one file, in the style of NFS fattr3.
type Attr struct {
	Type   FileType
	Mode   uint32
	Nlink  uint32
	UID    uint32
	GID    uint32
	Size   uint64
	FileID FileID
	Atime  time.Time
	Mtime  time.Time
	Ctime  time.Time
}

// SetAttr selects attribute updates; nil fields are left unchanged.
type SetAttr struct {
	Mode  *uint32
	UID   *uint32
	GID   *uint32
	Size  *uint64
	Mtime *time.Time
	Atime *time.Time
}

// DirEntry is one directory entry as returned by ReadDir.
type DirEntry struct {
	Name   string
	FileID FileID
	Cookie uint64
}

type dirent struct {
	id     FileID
	cookie uint64
}

// node is one inode. Its mu guards every field below it; id is
// immutable. dead marks a node whose last link is gone (or whose
// removal is committed) — operations that find it set return ErrStale.
// Regular-file content lives in the FS's BlockStore, keyed by id;
// attr.Size is the authoritative length and the node lock serializes
// all store calls for the id (the storage concurrency contract).
type node struct {
	id FileID

	mu       sync.RWMutex
	dead     bool
	attr     Attr
	children map[string]dirent // TypeDir
	parent   FileID            // TypeDir
	target   string            // TypeSymlink
	nlink    uint32
}

// shard is one stripe of the node table plus its contention counters.
// The per-node counters live here too, attributed to the shard of the
// node's id, so hot stripes are visible in LockStats.
type shard struct {
	mu    sync.RWMutex
	nodes map[FileID]*node

	mapLocks      atomic.Uint64
	mapContended  atomic.Uint64
	nodeLocks     atomic.Uint64
	nodeContended atomic.Uint64
}

// FS is the node tree over a storage backend. All methods are safe
// for concurrent use; see the package comment for the lock hierarchy.
type FS struct {
	shards     [NumShards]shard
	root       FileID
	nextID     atomic.Uint64
	nextCookie atomic.Uint64
	clock      func() time.Time
	// meta journals namespace/attr mutations; blocks holds file
	// content. For durable backends both are one object (diskstore).
	meta   storage.MetadataStore
	blocks storage.BlockStore
	// replayed records the journal replay done at open, for figures.
	replayed storage.ReplayStats
	// verf is the write verifier of the current "boot" (RFC 1813
	// §4.8): it changes across Restart so clients can detect that
	// unstable data may have been lost.
	verf atomic.Uint64
	// orderRestarts counts lock-ordering restarts (rule 2 above).
	orderRestarts atomic.Uint64
	// quiesce serializes mutations against checkpoint snapshots:
	// every operation that journals a record or changes the tree
	// holds it shared, Checkpoint and Restart hold it exclusive.
	// Reads never touch it. Ordered before node locks (rule 0: no
	// path acquires quiesce while holding a node or shard lock).
	quiesce sync.RWMutex
}

// bootCount disambiguates verifiers minted within one clock tick.
var bootCount atomic.Uint64

// newVerf mints a boot verifier. A durable store's WAL epoch is
// authoritative — it survives the crash that invalidated the old
// verifier, so replayed clients and a reopened server agree without
// any wall-clock read. The in-memory path mixes the file system's
// clock with a boot counter, so restart tests driven by an injected
// clock stay deterministic.
func (fs *FS) newVerf() uint64 {
	if ep, ok := fs.blocks.(storage.Epocher); ok {
		return mix64(ep.Epoch())
	}
	return uint64(fs.clock().UnixNano()) ^ bootCount.Add(1)<<48
}

// mix64 is the splitmix64 finalizer: a bijection spreading small
// epochs across the verifier space.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New returns an empty file system over the in-memory store, whose
// root directory is owned by rootUID/rootGID with mode 0755.
func New() *FS {
	ms := memstore.New()
	fs, err := NewWithStores(ms, ms)
	if err != nil {
		panic("vfs: in-memory store cannot fail: " + err.Error())
	}
	return fs
}

// NewWithStores returns a file system whose namespace mutations are
// journaled through meta and whose file content lives in blocks. If
// the stores are durable (meta implements storage.Replayer), the
// surviving journal is replayed to rebuild the tree before the file
// system is returned, and the write verifier derives from the
// store's boot epoch. Durable backends must pass one object as both
// halves (journal order must cover both namespaces and content).
func NewWithStores(meta storage.MetadataStore, blocks storage.BlockStore) (*FS, error) {
	fs := &FS{clock: time.Now, meta: meta, blocks: blocks}
	fs.initTree()
	if rp, ok := meta.(storage.Replayer); ok {
		st, err := rp.Replay(fs.applyRecord)
		if err != nil {
			return nil, err
		}
		fs.replayed = st
	}
	fs.foldWatermarks()
	fs.verf.Store(fs.newVerf())
	return fs, nil
}

// foldWatermarks raises the id and cookie counters to the store's
// checkpoint-trailer watermarks. Replay alone cannot recover them:
// ids allocated before a checkpoint and freed after it appear in
// neither the image nor the tail, and reusing one would resurrect
// stale NFS file handles.
func (fs *FS) foldWatermarks() {
	if wm, ok := fs.meta.(storage.Watermarker); ok {
		id, cookie := wm.Watermarks()
		fs.noteID(id)
		fs.noteCookie(cookie)
	}
}

// initTree builds the empty shard table and the root directory. The
// root is implicit — never journaled — so every replay starts from
// the same node 1.
func (fs *FS) initTree() {
	for i := range fs.shards {
		fs.shards[i].nodes = make(map[FileID]*node)
	}
	now := fs.clock()
	r := &node{
		id: FileID(fs.nextID.Add(1)),
		attr: Attr{
			Type: TypeDir, Mode: 0o755, Nlink: 2,
			Atime: now, Mtime: now, Ctime: now,
		},
		children: make(map[string]dirent),
		nlink:    2,
	}
	r.attr.FileID = r.id
	r.parent = r.id
	fs.insertNode(r)
	fs.root = r.id
}

// LastReplay reports the journal replay statistics from the most
// recent open or crash-restart (zero for the in-memory store).
func (fs *FS) LastReplay() storage.ReplayStats { return fs.replayed }

// StorageStats returns the durable store's counters, or nil for the
// in-memory default — callers embed it with omitempty so memstore
// deployments keep their exact pre-refactor stats documents.
func (fs *FS) StorageStats() *storage.Stats {
	if sr, ok := fs.blocks.(storage.StatsReporter); ok {
		return sr.StorageStats()
	}
	return nil
}

// Root returns the FileID of the root directory.
func (fs *FS) Root() FileID { return fs.root }

func (fs *FS) shardOf(id FileID) *shard {
	return &fs.shards[uint64(id)&(NumShards-1)]
}

// get returns the node for id without locking it. Callers must lock
// the node and re-check its dead flag before touching its fields.
func (fs *FS) get(id FileID) (*node, error) {
	sh := fs.shardOf(id)
	if !sh.mu.TryRLock() {
		sh.mapContended.Add(1)
		sh.mu.RLock()
	}
	sh.mapLocks.Add(1)
	n, ok := sh.nodes[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, ErrStale
	}
	return n, nil
}

// insertNode publishes a fully built node in its shard's map.
func (fs *FS) insertNode(n *node) {
	sh := fs.shardOf(n.id)
	if !sh.mu.TryLock() {
		sh.mapContended.Add(1)
		sh.mu.Lock()
	}
	sh.mapLocks.Add(1)
	sh.nodes[n.id] = n
	sh.mu.Unlock()
}

// deleteNode removes a dead node from its shard's map. The caller
// holds the node's lock (node → shard-map order, rule 1).
func (fs *FS) deleteNode(n *node) {
	sh := fs.shardOf(n.id)
	if !sh.mu.TryLock() {
		sh.mapContended.Add(1)
		sh.mu.Lock()
	}
	sh.mapLocks.Add(1)
	delete(sh.nodes, n.id)
	sh.mu.Unlock()
}

// lockNode write-locks n, counting contention against its shard.
func (fs *FS) lockNode(n *node) {
	sh := fs.shardOf(n.id)
	if !n.mu.TryLock() {
		sh.nodeContended.Add(1)
		n.mu.Lock()
	}
	sh.nodeLocks.Add(1)
}

// rlockNode read-locks n, counting contention against its shard.
func (fs *FS) rlockNode(n *node) {
	sh := fs.shardOf(n.id)
	if !n.mu.TryRLock() {
		sh.nodeContended.Add(1)
		n.mu.RLock()
	}
	sh.nodeLocks.Add(1)
}

// getLocked returns the node write-locked and alive.
func (fs *FS) getLocked(id FileID) (*node, error) {
	n, err := fs.get(id)
	if err != nil {
		return nil, err
	}
	fs.lockNode(n)
	if n.dead {
		n.mu.Unlock()
		return nil, ErrStale
	}
	return n, nil
}

// getRLocked returns the node read-locked and alive.
func (fs *FS) getRLocked(id FileID) (*node, error) {
	n, err := fs.get(id)
	if err != nil {
		return nil, err
	}
	fs.rlockNode(n)
	if n.dead {
		n.mu.RUnlock()
		return nil, ErrStale
	}
	return n, nil
}

// lockAscending write-locks the given nodes in ascending FileID order.
// The slice is sorted and deduplicated in place; the returned slice
// holds the nodes actually locked (unlock in any order).
func (fs *FS) lockAscending(ns []*node) []*node {
	sort.Slice(ns, func(i, j int) bool { return ns[i].id < ns[j].id })
	out := ns[:0]
	var prev *node
	for _, n := range ns {
		if n == prev {
			continue
		}
		fs.lockNode(n)
		out = append(out, n)
		prev = n
	}
	return out
}

func unlockAll(ns []*node) {
	for _, n := range ns {
		n.mu.Unlock()
	}
}

// lockChild locks the child entry id of the already write-locked
// directory d, following the ascending-id rule: when id > d.id the
// child is locked directly; otherwise d is released, both are locked
// in ascending order, and the entry is re-validated. ok reports
// whether d is still locked, alive, and maps name to id — when false,
// everything is unlocked and the caller must restart.
func (fs *FS) lockChild(d *node, name string, id FileID) (child *node, ok bool) {
	if id > d.id {
		// A directory's lock pins its entries (rule 3), so the
		// child must be in the table.
		n, err := fs.get(id)
		if err != nil || n.dead {
			// Unreachable while d is locked; treat as a restart.
			d.mu.Unlock()
			return nil, false
		}
		fs.lockNode(n)
		return n, true
	}
	fs.orderRestarts.Add(1)
	d.mu.Unlock()
	n, err := fs.get(id)
	if err != nil {
		return nil, false
	}
	fs.lockNode(n)
	fs.lockNode(d)
	if d.dead || n.dead || d.children[name].id != id {
		d.mu.Unlock()
		n.mu.Unlock()
		return nil, false
	}
	return n, true
}

// access checks whether cred may perform want (a ModeRead/Write/Exec
// combination) on n.
func access(cred Cred, n *node, want uint32) error {
	if cred.UID == 0 {
		return nil
	}
	var bits uint32
	switch {
	case cred.UID == n.attr.UID:
		bits = n.attr.Mode >> 6
	case inGroup(cred, n.attr.GID):
		bits = n.attr.Mode >> 3
	default:
		bits = n.attr.Mode
	}
	if bits&want != want {
		return ErrPerm
	}
	return nil
}

func inGroup(cred Cred, gid uint32) bool {
	for _, g := range cred.GIDs {
		if g == gid {
			return true
		}
	}
	return false
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." {
		return ErrInval
	}
	if len(name) > MaxNameLen {
		return ErrNameTooLong
	}
	if strings.ContainsRune(name, '/') {
		return ErrInval
	}
	return nil
}

// GetAttr returns the attributes of id.
func (fs *FS) GetAttr(id FileID) (Attr, error) {
	n, err := fs.getRLocked(id)
	if err != nil {
		return Attr{}, err
	}
	a := n.attr
	a.Nlink = n.nlink
	n.mu.RUnlock()
	return a, nil
}

// SetAttrs applies the non-nil fields of sa to id with permission
// checks: chmod/chown require ownership (or root); size and time
// updates require write permission.
func (fs *FS) SetAttrs(cred Cred, id FileID, sa SetAttr) (Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	n, err := fs.getLocked(id)
	if err != nil {
		return Attr{}, err
	}
	owner := cred.UID == 0 || cred.UID == n.attr.UID
	if (sa.Mode != nil || sa.UID != nil || sa.GID != nil) && !owner {
		n.mu.Unlock()
		return Attr{}, ErrPerm
	}
	if sa.UID != nil && *sa.UID != n.attr.UID && cred.UID != 0 {
		n.mu.Unlock()
		return Attr{}, ErrPerm // only root may give files away
	}
	if sa.Size != nil || sa.Mtime != nil || sa.Atime != nil {
		if !owner {
			if err := access(cred, n, ModeWrite); err != nil {
				n.mu.Unlock()
				return Attr{}, err
			}
		}
	}
	now := fs.clock()
	rec := storage.MetaRecord{Op: storage.OpSetAttr, Time: now.UnixNano(), ID: uint64(n.id)}
	if sa.Mode != nil {
		n.attr.Mode = *sa.Mode & 0o7777
		rec.SetMask |= storage.SetMode
		rec.Mode = n.attr.Mode
	}
	if sa.UID != nil {
		n.attr.UID = *sa.UID
		rec.SetMask |= storage.SetUID
		rec.UID = *sa.UID
	}
	if sa.GID != nil {
		n.attr.GID = *sa.GID
		rec.SetMask |= storage.SetGID
		rec.GID = *sa.GID
	}
	if sa.Size != nil {
		if n.attr.Type != TypeReg {
			n.mu.Unlock()
			return Attr{}, ErrIsDir
		}
		sz := *sa.Size
		// Truncate is a synchronous, stable update.
		if err := fs.blocks.Truncate(uint64(n.id), sz); err != nil {
			n.mu.Unlock()
			return Attr{}, ioErr(err)
		}
		n.attr.Size = sz
		n.attr.Mtime = now
		rec.SetMask |= storage.SetSize | storage.SetMtime
		rec.Size = sz
		rec.Mtime = now.UnixNano()
	}
	if sa.Mtime != nil {
		n.attr.Mtime = *sa.Mtime
		rec.SetMask |= storage.SetMtime
		rec.Mtime = sa.Mtime.UnixNano()
	}
	if sa.Atime != nil {
		n.attr.Atime = *sa.Atime
		rec.SetMask |= storage.SetAtime
		rec.Atime = sa.Atime.UnixNano()
	}
	n.attr.Ctime = now
	a := n.attr
	a.Nlink = n.nlink
	err = fs.meta.LogMeta(&rec)
	n.mu.Unlock()
	if err != nil {
		return Attr{}, ioErr(err)
	}
	return a, nil
}

// Access reports whether cred may perform want on id, without side
// effects — the NFS ACCESS procedure.
func (fs *FS) Access(cred Cred, id FileID, want uint32) error {
	n, err := fs.getRLocked(id)
	if err != nil {
		return err
	}
	err = access(cred, n, want)
	n.mu.RUnlock()
	return err
}

// Lookup resolves name within directory dir.
func (fs *FS) Lookup(cred Cred, dir FileID, name string) (FileID, Attr, error) {
	d, err := fs.getRLocked(dir)
	if err != nil {
		return 0, Attr{}, err
	}
	if d.attr.Type != TypeDir {
		d.mu.RUnlock()
		return 0, Attr{}, ErrNotDir
	}
	if err := access(cred, d, ModeExec); err != nil {
		d.mu.RUnlock()
		return 0, Attr{}, err
	}
	switch name {
	case ".":
		a := d.attr
		a.Nlink = d.nlink
		d.mu.RUnlock()
		return d.id, a, nil
	case "..":
		// Release d before locking the parent: the parent usually has
		// a smaller id, and holding both would invert the ascending
		// order (rule 2).
		parent := d.parent
		d.mu.RUnlock()
		p, err := fs.getRLocked(parent)
		if err != nil {
			return 0, Attr{}, err
		}
		a := p.attr
		a.Nlink = p.nlink
		p.mu.RUnlock()
		return p.id, a, nil
	}
	if err := checkName(name); err != nil {
		d.mu.RUnlock()
		return 0, Attr{}, err
	}
	ent, ok := d.children[name]
	d.mu.RUnlock()
	if !ok {
		return 0, Attr{}, ErrNotFound
	}
	n, err := fs.getRLocked(ent.id)
	if err != nil {
		// The entry was removed between the two locks; report the
		// name as gone rather than the handle as stale.
		return 0, Attr{}, ErrNotFound
	}
	a := n.attr
	a.Nlink = n.nlink
	n.mu.RUnlock()
	return a.FileID, a, nil
}

// Create makes a regular file owned by cred in dir. If exclusive is
// set an existing name fails with ErrExist; otherwise an existing
// regular file is truncated and returned.
func (fs *FS) Create(cred Cred, dir FileID, name string, mode uint32, exclusive bool) (FileID, Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	if err := checkName(name); err != nil {
		return 0, Attr{}, err
	}
	for {
		d, err := fs.getLocked(dir)
		if err != nil {
			return 0, Attr{}, err
		}
		if d.attr.Type != TypeDir {
			d.mu.Unlock()
			return 0, Attr{}, ErrNotDir
		}
		if err := access(cred, d, ModeWrite|ModeExec); err != nil {
			d.mu.Unlock()
			return 0, Attr{}, err
		}
		ent, ok := d.children[name]
		if !ok {
			now := fs.clock()
			n := fs.newNode(TypeReg, mode, cred, now)
			a := n.attr
			a.Nlink = n.nlink
			fs.insertNode(n)
			cookie := fs.cookie()
			d.children[name] = dirent{id: n.id, cookie: cookie}
			fs.touchDir(d, now)
			// Journal while d is still locked, so log order matches
			// serialization order and the create precedes any record
			// that references the new id.
			err := fs.meta.LogMeta(&storage.MetaRecord{
				Op: storage.OpCreate, Time: now.UnixNano(),
				Dir: uint64(d.id), Name: name, ID: uint64(n.id),
				Cookie: cookie, Mode: a.Mode, UID: a.UID, GID: a.GID,
			})
			d.mu.Unlock()
			if err != nil {
				return 0, Attr{}, ioErr(err)
			}
			return a.FileID, a, nil
		}
		if exclusive {
			d.mu.Unlock()
			return 0, Attr{}, ErrExist
		}
		n, ok := fs.lockChild(d, name, ent.id)
		if !ok {
			continue
		}
		if n.attr.Type != TypeReg {
			d.mu.Unlock()
			n.mu.Unlock()
			return 0, Attr{}, ErrExist
		}
		if err := access(cred, n, ModeWrite); err != nil {
			d.mu.Unlock()
			n.mu.Unlock()
			return 0, Attr{}, err
		}
		// Truncation is stable.
		if err := fs.blocks.Truncate(uint64(n.id), 0); err != nil {
			d.mu.Unlock()
			n.mu.Unlock()
			return 0, Attr{}, ioErr(err)
		}
		n.attr.Size = 0
		now := fs.clock()
		n.attr.Mtime, n.attr.Ctime = now, now
		a := n.attr
		a.Nlink = n.nlink
		err = fs.meta.LogMeta(&storage.MetaRecord{
			Op: storage.OpSetAttr, Time: now.UnixNano(), ID: uint64(n.id),
			SetMask: storage.SetSize | storage.SetMtime, Size: 0, Mtime: now.UnixNano(),
		})
		d.mu.Unlock()
		n.mu.Unlock()
		if err != nil {
			return 0, Attr{}, ioErr(err)
		}
		return a.FileID, a, nil
	}
}

// newNode builds a node without publishing it; the caller copies what
// it needs and then calls insertNode. The caller supplies now so one
// clock reading stamps the node, the directory touch, and the journal
// record — which is what makes replay reproduce the tree exactly.
func (fs *FS) newNode(t FileType, mode uint32, cred Cred, now time.Time) *node {
	gid := uint32(NobodyGID)
	if len(cred.GIDs) > 0 {
		gid = cred.GIDs[0]
	}
	n := &node{
		id: FileID(fs.nextID.Add(1)),
		attr: Attr{
			Type: t, Mode: mode & 0o7777, UID: cred.UID, GID: gid,
			Atime: now, Mtime: now, Ctime: now,
		},
		nlink: 1,
	}
	n.attr.FileID = n.id
	if t == TypeDir {
		n.children = make(map[string]dirent)
		n.nlink = 2
	}
	return n
}

func (fs *FS) cookie() uint64 { return fs.nextCookie.Add(1) }

func (fs *FS) touchDir(d *node, now time.Time) {
	d.attr.Mtime, d.attr.Ctime = now, now
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(cred Cred, dir FileID, name string, mode uint32) (FileID, Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	if err := checkName(name); err != nil {
		return 0, Attr{}, err
	}
	d, err := fs.getLocked(dir)
	if err != nil {
		return 0, Attr{}, err
	}
	if d.attr.Type != TypeDir {
		d.mu.Unlock()
		return 0, Attr{}, ErrNotDir
	}
	if err := access(cred, d, ModeWrite|ModeExec); err != nil {
		d.mu.Unlock()
		return 0, Attr{}, err
	}
	if _, ok := d.children[name]; ok {
		d.mu.Unlock()
		return 0, Attr{}, ErrExist
	}
	now := fs.clock()
	n := fs.newNode(TypeDir, mode, cred, now)
	n.parent = d.id
	a := n.attr
	a.Nlink = n.nlink
	fs.insertNode(n)
	cookie := fs.cookie()
	d.children[name] = dirent{id: n.id, cookie: cookie}
	d.nlink++
	fs.touchDir(d, now)
	err = fs.meta.LogMeta(&storage.MetaRecord{
		Op: storage.OpMkdir, Time: now.UnixNano(),
		Dir: uint64(d.id), Name: name, ID: uint64(n.id),
		Cookie: cookie, Mode: a.Mode, UID: a.UID, GID: a.GID,
	})
	d.mu.Unlock()
	if err != nil {
		return 0, Attr{}, ioErr(err)
	}
	return a.FileID, a, nil
}

// Symlink creates a symbolic link to target.
func (fs *FS) Symlink(cred Cred, dir FileID, name, target string) (FileID, Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	if err := checkName(name); err != nil {
		return 0, Attr{}, err
	}
	if len(target) > 4096 {
		return 0, Attr{}, ErrNameTooLong
	}
	d, err := fs.getLocked(dir)
	if err != nil {
		return 0, Attr{}, err
	}
	if d.attr.Type != TypeDir {
		d.mu.Unlock()
		return 0, Attr{}, ErrNotDir
	}
	if err := access(cred, d, ModeWrite|ModeExec); err != nil {
		d.mu.Unlock()
		return 0, Attr{}, err
	}
	if _, ok := d.children[name]; ok {
		d.mu.Unlock()
		return 0, Attr{}, ErrExist
	}
	now := fs.clock()
	n := fs.newNode(TypeSymlink, 0o777, cred, now)
	n.target = target
	n.attr.Size = uint64(len(target))
	a := n.attr
	a.Nlink = n.nlink
	fs.insertNode(n)
	cookie := fs.cookie()
	d.children[name] = dirent{id: n.id, cookie: cookie}
	fs.touchDir(d, now)
	err = fs.meta.LogMeta(&storage.MetaRecord{
		Op: storage.OpSymlink, Time: now.UnixNano(),
		Dir: uint64(d.id), Name: name, ID: uint64(n.id),
		Cookie: cookie, Mode: a.Mode, UID: a.UID, GID: a.GID, Target: target,
	})
	d.mu.Unlock()
	if err != nil {
		return 0, Attr{}, ioErr(err)
	}
	return a.FileID, a, nil
}

// Readlink returns the target of a symbolic link.
func (fs *FS) Readlink(id FileID) (string, error) {
	n, err := fs.getRLocked(id)
	if err != nil {
		return "", err
	}
	if n.attr.Type != TypeSymlink {
		n.mu.RUnlock()
		return "", ErrNotSymlink
	}
	target := n.target
	n.mu.RUnlock()
	return target, nil
}

// Link creates a hard link to an existing regular file.
func (fs *FS) Link(cred Cred, file, dir FileID, name string) error {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	if err := checkName(name); err != nil {
		return err
	}
	// Both ids are known up front: lock straight in ascending order.
	n, err := fs.get(file)
	if err != nil {
		return err
	}
	d, err := fs.get(dir)
	if err != nil {
		return err
	}
	locked := fs.lockAscending([]*node{n, d})
	if n.dead || d.dead {
		unlockAll(locked)
		return ErrStale
	}
	if n.attr.Type == TypeDir {
		unlockAll(locked)
		return ErrIsDir
	}
	if d.attr.Type != TypeDir {
		unlockAll(locked)
		return ErrNotDir
	}
	if err := access(cred, d, ModeWrite|ModeExec); err != nil {
		unlockAll(locked)
		return err
	}
	if _, ok := d.children[name]; ok {
		unlockAll(locked)
		return ErrExist
	}
	now := fs.clock()
	cookie := fs.cookie()
	d.children[name] = dirent{id: n.id, cookie: cookie}
	n.nlink++
	n.attr.Ctime = now
	fs.touchDir(d, now)
	logErr := fs.meta.LogMeta(&storage.MetaRecord{
		Op: storage.OpLink, Time: now.UnixNano(),
		Dir: uint64(d.id), Name: name, ID: uint64(n.id), Cookie: cookie,
	})
	unlockAll(locked)
	if logErr != nil {
		return ioErr(logErr)
	}
	return nil
}

// Remove unlinks a non-directory name from dir.
func (fs *FS) Remove(cred Cred, dir FileID, name string) error {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	if err := checkName(name); err != nil {
		return err
	}
	for {
		d, err := fs.getLocked(dir)
		if err != nil {
			return err
		}
		if d.attr.Type != TypeDir {
			d.mu.Unlock()
			return ErrNotDir
		}
		if err := access(cred, d, ModeWrite|ModeExec); err != nil {
			d.mu.Unlock()
			return err
		}
		ent, ok := d.children[name]
		if !ok {
			d.mu.Unlock()
			return ErrNotFound
		}
		n, ok := fs.lockChild(d, name, ent.id)
		if !ok {
			continue
		}
		if n.attr.Type == TypeDir {
			d.mu.Unlock()
			n.mu.Unlock()
			return ErrIsDir
		}
		now := fs.clock()
		delete(d.children, name)
		n.nlink--
		if n.nlink == 0 {
			n.dead = true
			fs.deleteNode(n)
			// Last link gone: release the content. Durability of the
			// removal rides on the OpRemove record.
			fs.blocks.Remove(uint64(n.id)) //nolint:errcheck
		} else {
			n.attr.Ctime = now
		}
		fs.touchDir(d, now)
		logErr := fs.meta.LogMeta(&storage.MetaRecord{
			Op: storage.OpRemove, Time: now.UnixNano(),
			Dir: uint64(d.id), Name: name,
		})
		d.mu.Unlock()
		n.mu.Unlock()
		if logErr != nil {
			return ioErr(logErr)
		}
		return nil
	}
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(cred Cred, dir FileID, name string) error {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	if err := checkName(name); err != nil {
		return err
	}
	for {
		d, err := fs.getLocked(dir)
		if err != nil {
			return err
		}
		if err := access(cred, d, ModeWrite|ModeExec); err != nil {
			d.mu.Unlock()
			return err
		}
		ent, ok := d.children[name]
		if !ok {
			d.mu.Unlock()
			return ErrNotFound
		}
		n, ok := fs.lockChild(d, name, ent.id)
		if !ok {
			continue
		}
		if n.attr.Type != TypeDir {
			d.mu.Unlock()
			n.mu.Unlock()
			return ErrNotDir
		}
		if len(n.children) != 0 {
			d.mu.Unlock()
			n.mu.Unlock()
			return ErrNotEmpty
		}
		now := fs.clock()
		delete(d.children, name)
		n.dead = true
		fs.deleteNode(n)
		d.nlink--
		fs.touchDir(d, now)
		logErr := fs.meta.LogMeta(&storage.MetaRecord{
			Op: storage.OpRmdir, Time: now.UnixNano(),
			Dir: uint64(d.id), Name: name,
		})
		d.mu.Unlock()
		n.mu.Unlock()
		if logErr != nil {
			return ioErr(logErr)
		}
		return nil
	}
}

// Rename moves fromName in fromDir to toName in toDir, replacing any
// existing non-directory target.
//
// Rename is the one operation that can need four node locks (two
// directories, the moved node, a replaced victim), so it always runs
// the two-phase protocol of rule 2: peek at the entries under the
// directory locks, release, lock the full set in ascending id order,
// and re-validate; any interleaved change restarts the loop.
func (fs *FS) Rename(cred Cred, fromDir FileID, fromName string, toDir FileID, toName string) error {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	if err := checkName(fromName); err != nil {
		return err
	}
	if err := checkName(toName); err != nil {
		return err
	}
	for {
		// Peek phase: discover which nodes the rename involves.
		fd, err := fs.get(fromDir)
		if err != nil {
			return err
		}
		td, err := fs.get(toDir)
		if err != nil {
			return err
		}
		dirs := fs.lockAscending([]*node{fd, td})
		if fd.dead || td.dead {
			unlockAll(dirs)
			return ErrStale
		}
		if fd.attr.Type != TypeDir || td.attr.Type != TypeDir {
			unlockAll(dirs)
			return ErrNotDir
		}
		if err := access(cred, fd, ModeWrite|ModeExec); err != nil {
			unlockAll(dirs)
			return err
		}
		if err := access(cred, td, ModeWrite|ModeExec); err != nil {
			unlockAll(dirs)
			return err
		}
		ent, ok := fd.children[fromName]
		if !ok {
			unlockAll(dirs)
			return ErrNotFound
		}
		old, hasOld := td.children[toName]
		if hasOld && old.id == ent.id {
			unlockAll(dirs)
			return nil
		}
		n, err := fs.get(ent.id)
		if err != nil {
			unlockAll(dirs)
			continue // unreachable while fd is locked; restart
		}
		var o *node
		if hasOld {
			if o, err = fs.get(old.id); err != nil {
				unlockAll(dirs)
				continue
			}
		}

		// Lock phase: if every extra node orders after the held
		// directories, lock them in place; otherwise release and
		// re-acquire the full set ascending.
		maxHeld := fd.id
		if td.id > maxHeld {
			maxHeld = td.id
		}
		var locked []*node
		if n.id > maxHeld && (o == nil || o.id > maxHeld) {
			extra := []*node{n}
			if o != nil && o != n {
				extra = append(extra, o)
			}
			locked = append(dirs, fs.lockAscending(extra)...)
		} else {
			fs.orderRestarts.Add(1)
			unlockAll(dirs)
			all := []*node{fd, td, n}
			if o != nil {
				all = append(all, o)
			}
			locked = fs.lockAscending(all)
			// Re-validate everything read during the peek.
			stale := fd.dead || td.dead || n.dead || (o != nil && o.dead) ||
				fd.children[fromName] != ent
			if !stale {
				old2, has2 := td.children[toName]
				stale = has2 != hasOld || (hasOld && old2 != old)
			}
			if stale {
				unlockAll(locked)
				continue
			}
		}

		// Mutation phase: all involved nodes are locked.
		if o != nil {
			if o.attr.Type == TypeDir {
				if n.attr.Type != TypeDir {
					unlockAll(locked)
					return ErrIsDir
				}
				if len(o.children) != 0 {
					unlockAll(locked)
					return ErrNotEmpty
				}
				o.dead = true
				fs.deleteNode(o)
				td.nlink--
			} else {
				o.nlink--
				if o.nlink == 0 {
					o.dead = true
					fs.deleteNode(o)
					fs.blocks.Remove(uint64(o.id)) //nolint:errcheck
				}
			}
		}
		now := fs.clock()
		toCookie := fs.cookie()
		delete(fd.children, fromName)
		td.children[toName] = dirent{id: n.id, cookie: toCookie}
		if n.attr.Type == TypeDir {
			n.parent = td.id
			if fd.id != td.id {
				fd.nlink--
				td.nlink++
			}
		}
		fs.touchDir(fd, now)
		fs.touchDir(td, now)
		logErr := fs.meta.LogMeta(&storage.MetaRecord{
			Op: storage.OpRename, Time: now.UnixNano(),
			Dir: uint64(fd.id), Name: fromName,
			ToDir: uint64(td.id), ToName: toName, ToCookie: toCookie,
		})
		unlockAll(locked)
		if logErr != nil {
			return ioErr(logErr)
		}
		return nil
	}
}

// Read returns up to count bytes of file data starting at off, and
// whether the read reached end of file. The copy is made under the
// file's own read lock, so concurrent reads — of this file or any
// other — proceed in parallel.
//
// The returned slice is a fresh snapshot no one else references:
// store-level buffers mutate in place under writes (memstore WriteAt),
// so this snapshot — not the store's backing array — is the stable
// slice the wire path borrows into READ replies (DESIGN.md §12). This
// copy is the one unavoidable touch between disk state and the wire.
func (fs *FS) Read(cred Cred, id FileID, off uint64, count uint32) ([]byte, bool, error) {
	n, err := fs.getRLocked(id)
	if err != nil {
		return nil, false, err
	}
	if n.attr.Type == TypeDir {
		n.mu.RUnlock()
		return nil, false, ErrIsDir
	}
	if err := access(cred, n, ModeRead); err != nil {
		n.mu.RUnlock()
		return nil, false, err
	}
	size := n.attr.Size
	if off >= size {
		n.mu.RUnlock()
		return []byte{}, true, nil
	}
	end := off + uint64(count)
	if end > size {
		end = size
	}
	out := make([]byte, end-off)
	// The copy is made under the node's read lock, which is what
	// serializes it against writers per the storage contract.
	if err := fs.blocks.ReadAt(uint64(n.id), off, out); err != nil {
		n.mu.RUnlock()
		return nil, false, ioErr(err)
	}
	eof := end == size
	n.mu.RUnlock()
	return out, eof, nil
}

// Write stores data at off, extending the file as needed. If sync is
// set the write is stable: on storage before the call returns.
func (fs *FS) Write(cred Cred, id FileID, off uint64, data []byte, sync bool) (Attr, error) {
	return fs.WriteClocked(cred, id, off, data, sync, nil)
}

// WriteClocked is Write with a stage clock: on a durable store the
// group-commit wait of a stable write is charged to clk's fsync stage
// (storage.ClockedStore). A nil clk is exactly Write.
func (fs *FS) WriteClocked(cred Cred, id FileID, off uint64, data []byte, sync bool, clk *stats.StageClock) (Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	n, err := fs.getLocked(id)
	if err != nil {
		return Attr{}, err
	}
	if n.attr.Type == TypeDir {
		n.mu.Unlock()
		return Attr{}, ErrIsDir
	}
	if err := access(cred, n, ModeWrite); err != nil {
		n.mu.Unlock()
		return Attr{}, err
	}
	now := fs.clock()
	// The store decides what stability means: to the volatile memstore
	// every write is the same; diskstore journals the extent, returning
	// immediately for unstable writes and after the group-committed
	// fsync for stable ones.
	if cs, ok := fs.blocks.(storage.ClockedStore); ok && clk != nil {
		err = cs.WriteAtClocked(uint64(n.id), off, data, sync, now.UnixNano(), clk)
	} else {
		err = fs.blocks.WriteAt(uint64(n.id), off, data, sync, now.UnixNano())
	}
	if err != nil {
		n.mu.Unlock()
		return Attr{}, ioErr(err)
	}
	if end := off + uint64(len(data)); end > n.attr.Size {
		n.attr.Size = end
	}
	n.attr.Mtime, n.attr.Ctime = now, now
	a := n.attr
	a.Nlink = n.nlink
	n.mu.Unlock()
	return a, nil
}

// Commit flushes a file to stable storage (the NFS COMMIT operation).
// On a durable store this waits for one group-committed fsync.
func (fs *FS) Commit(id FileID) error {
	return fs.CommitClocked(id, nil)
}

// CommitClocked is Commit with the group-commit wait charged to clk's
// fsync stage. A nil clk is exactly Commit.
func (fs *FS) CommitClocked(id FileID, clk *stats.StageClock) error {
	n, err := fs.getLocked(id)
	if err != nil {
		return err
	}
	if cs, ok := fs.blocks.(storage.ClockedStore); ok && clk != nil {
		err = cs.CommitClocked(uint64(n.id), clk)
	} else {
		err = fs.blocks.Commit(uint64(n.id))
	}
	n.mu.Unlock()
	if err != nil {
		return ioErr(err)
	}
	return nil
}

// Verifier reports the write verifier of the current boot. NFS 3
// clients compare the verifiers carried by WRITE and COMMIT replies: a
// change means unstable data may have been discarded and must be
// retransmitted (RFC 1813 §4.8).
func (fs *FS) Verifier() uint64 { return fs.verf.Load() }

// Restart is a server crash and reboot: the write verifier changes so
// clients retransmit their uncommitted unstable writes (RFC 1813 §4.8).
//
// On a durable store the crash is real: the journal drops its
// user-space buffer and closes without a final sync (the kill -9
// model), reopens under a new epoch, and the tree is rebuilt from the
// surviving records — uncommitted unstable writes may be lost, every
// acknowledged COMMIT survives because its fsync already covered it.
//
// The in-memory store cannot crash apart from its process, so there
// Restart loses nothing and only rolls the verifier: clients
// retransmit data that in fact survived.
//
// Restart is not atomic against in-flight writes — neither is a real
// crash. A write that lands mid-restart saw the old verifier when its
// reply was stamped, so the client observes a verifier change and
// retransmits data that may in fact have survived: a redundant
// retransmission, never a silently dropped stability promise.
func (fs *FS) Restart() {
	// Exclusive against mutators AND checkpoints: a checkpoint
	// snapshotting the tree mid-swap would publish a half-restarted
	// image.
	fs.quiesce.Lock()
	defer fs.quiesce.Unlock()
	if cr, ok := fs.blocks.(storage.CrashRestarter); ok {
		if err := fs.crashRestart(cr); err != nil {
			// Restart is driven by tests and the recovery figure;
			// failing to reopen the store leaves nothing to serve.
			panic("vfs: crash restart: " + err.Error())
		}
		return
	}
	fs.verf.Store(fs.newVerf())
}

// ReadDir returns directory entries with cookies greater than cookie,
// in cookie order, up to max entries (0 means all).
func (fs *FS) ReadDir(cred Cred, dir FileID, cookie uint64, max int) ([]DirEntry, bool, error) {
	d, err := fs.getRLocked(dir)
	if err != nil {
		return nil, false, err
	}
	if d.attr.Type != TypeDir {
		d.mu.RUnlock()
		return nil, false, ErrNotDir
	}
	if err := access(cred, d, ModeRead); err != nil {
		d.mu.RUnlock()
		return nil, false, err
	}
	ents := make([]DirEntry, 0, len(d.children))
	for name, ent := range d.children {
		if ent.cookie > cookie {
			ents = append(ents, DirEntry{Name: name, FileID: ent.id, Cookie: ent.cookie})
		}
	}
	d.mu.RUnlock()
	sort.Slice(ents, func(i, j int) bool { return ents[i].Cookie < ents[j].Cookie })
	eof := true
	if max > 0 && len(ents) > max {
		ents = ents[:max]
		eof = false
	}
	return ents, eof, nil
}

// ShardLockStats is one stripe's slice of a LockStats snapshot.
type ShardLockStats struct {
	Shard         int    `json:"shard"`
	MapLocks      uint64 `json:"map_locks"`
	MapContended  uint64 `json:"map_contended,omitempty"`
	NodeLocks     uint64 `json:"node_locks"`
	NodeContended uint64 `json:"node_contended,omitempty"`
}

// LockStats is a snapshot of the sharded lock hierarchy's contention
// counters: how often the shard-map and per-node locks were taken,
// how often an acquisition had to wait, and how often a namespace
// operation restarted to respect the ascending lock order. Shards
// lists the per-stripe numbers for stripes that saw contention.
type LockStats struct {
	MapLocks      uint64           `json:"map_locks"`
	MapContended  uint64           `json:"map_contended"`
	NodeLocks     uint64           `json:"node_locks"`
	NodeContended uint64           `json:"node_contended"`
	OrderRestarts uint64           `json:"order_restarts"`
	Shards        []ShardLockStats `json:"shards,omitempty"`
}

// LockStatsSnapshot captures the contention counters of every stripe.
func (fs *FS) LockStatsSnapshot() LockStats {
	var st LockStats
	st.OrderRestarts = fs.orderRestarts.Load()
	for i := range fs.shards {
		sh := &fs.shards[i]
		s := ShardLockStats{
			Shard:         i,
			MapLocks:      sh.mapLocks.Load(),
			MapContended:  sh.mapContended.Load(),
			NodeLocks:     sh.nodeLocks.Load(),
			NodeContended: sh.nodeContended.Load(),
		}
		st.MapLocks += s.MapLocks
		st.MapContended += s.MapContended
		st.NodeLocks += s.NodeLocks
		st.NodeContended += s.NodeContended
		if s.MapContended > 0 || s.NodeContended > 0 {
			st.Shards = append(st.Shards, s)
		}
	}
	return st
}
