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
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// holds it shared, Checkpoint (for its image-writing section) and
	// Restart hold it exclusive. Reads never touch it. Ordered before
	// node locks (rule 0: no path acquires quiesce while holding a
	// node or shard lock).
	quiesce sync.RWMutex
	// ckptMu admits one Checkpoint at a time: most of a checkpoint
	// runs outside quiesce. Ordered before quiesce.
	ckptMu sync.Mutex
	// renameMu serializes the renames that give a directory a new
	// parent — the only writers of a published node's parent — so the
	// chain above the destination can be walked to refuse a move into
	// the directory's own subtree. Ordered after quiesce, before node
	// locks.
	renameMu sync.Mutex
}

// bootCount disambiguates verifiers minted within one clock tick.
var bootCount atomic.Uint64

// newVerf mints a boot verifier. A durable store's WAL epoch is
// authoritative — it survives the crash that invalidated the old
// verifier, so replayed clients and a reopened server agree without
// any wall-clock read. The in-memory store, which mints one only at
// boot, mixes the file system's clock with a boot counter, so two file
// systems made within one clock tick still differ.
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
	a := attrOf(n)
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
	a, err := fs.setAttr(n, sa)
	n.mu.Unlock()
	return a, err
}

// setAttr is the body SetAttrs and a truncating Create share: n is
// write-locked and the caller has checked permissions. Everything that
// can fail does so before the record is applied, so a refused update
// leaves n untouched and journals nothing.
func (fs *FS) setAttr(n *node, sa SetAttr) (Attr, error) {
	if sa.Size != nil && n.attr.Type != TypeReg {
		return Attr{}, ErrIsDir
	}
	now := fs.clock()
	rec := storage.MetaRecord{Op: storage.OpSetAttr, Time: now.UnixNano(), ID: uint64(n.id)}
	if sa.Mode != nil {
		rec.SetMask |= storage.SetMode
		rec.Mode = *sa.Mode & 0o7777
	}
	if sa.UID != nil {
		rec.SetMask |= storage.SetUID
		rec.UID = *sa.UID
	}
	if sa.GID != nil {
		rec.SetMask |= storage.SetGID
		rec.GID = *sa.GID
	}
	if sa.Size != nil {
		// Truncate is a synchronous, stable update.
		if err := fs.blocks.Truncate(uint64(n.id), *sa.Size); err != nil {
			return Attr{}, ioErr(err)
		}
		rec.SetMask |= storage.SetSize | storage.SetMtime
		rec.Size = *sa.Size
		rec.Mtime = now.UnixNano()
	}
	if sa.Mtime != nil {
		rec.SetMask |= storage.SetMtime
		rec.Mtime = sa.Mtime.UnixNano()
	}
	if sa.Atime != nil {
		rec.SetMask |= storage.SetAtime
		rec.Atime = sa.Atime.UnixNano()
	}
	applySetAttr(n, &rec)
	a := attrOf(n)
	if err := fs.meta.LogMeta(&rec); err != nil {
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
