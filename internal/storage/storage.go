// Package storage defines the durable-storage seam underneath
// internal/vfs: a MetadataStore that journals namespace and attribute
// mutations, and a BlockStore that holds regular-file content keyed by
// file id. The node tree in vfs owns locking, permission checks, and
// the namespace; a store owns bytes and their durability.
//
// Two implementations live below this package: storage/memstore (the
// default, preserving the original in-memory behavior byte for byte)
// and storage/diskstore (both interfaces over a group-commit
// write-ahead log in storage/wal, with real crash recovery).
//
// # Concurrency contract
//
// The vfs serializes mutating calls per file id under its per-node
// locks: a store never sees two concurrent WriteAt/Truncate/Commit/
// Remove calls for the same id. Concurrent ReadAt calls on one id, and
// any mix of calls across different ids, are allowed and must not
// interfere. LogMeta may be called concurrently from independent
// namespace operations; a durable store must persist records in the
// order the calls complete (vfs emits each record while still holding
// the locks that serialized the operation, so journal order matches
// serialization order).
package storage

import "repro/internal/stats"

// BlockSize is the nominal content block size. The WAL journals
// byte-granular extents, but stores may use this for allocation and
// the protocol layers above advertise it as the preferred I/O size.
const BlockSize = 8192

// MetadataStore journals namespace and attribute mutations. A durable
// implementation returns from LogMeta only once the record is on
// stable storage (one group-committed fsync); the in-memory store is
// a no-op since its "stable storage" is the node tree itself.
type MetadataStore interface {
	LogMeta(rec *MetaRecord) error
	Close() error
}

// BlockStore holds regular-file content. The id space is vfs.FileID;
// offsets and sizes are bytes.
type BlockStore interface {
	// ReadAt copies the content of id at off into p. The caller
	// guarantees [off, off+len(p)) lies within the file's current
	// size, so a short or missing extent indicates store corruption.
	ReadAt(id, off uint64, p []byte) error
	// WriteAt stores data at off, zero-filling any gap beyond the
	// current end. stable asks for durability before return (the NFS
	// FILE_SYNC path); unstable writes may buffer until Commit. t is
	// the caller's clock reading (UnixNano), stamped into the journal
	// so replay is deterministic under an injected clock.
	WriteAt(id, off uint64, data []byte, stable bool, t int64) error
	// Truncate sets the size of id, zero-filling growth. Truncation
	// is a stable update (its durability rides on the MetaRecord the
	// vfs journals for the same operation).
	Truncate(id, size uint64) error
	// Commit makes every prior WriteAt of id durable (the NFS COMMIT
	// operation). For a group-commit store many concurrent Commits
	// share one fsync.
	Commit(id uint64) error
	// Remove drops all content of id after its last link is gone.
	Remove(id uint64) error
}

// Replayer is implemented by durable stores. Replay streams the
// journal of the previous boots in append order, calling apply for
// every record so the vfs can rebuild its node tree. The store applies
// data payloads to its own serving copy before Replay returns; apply
// must not call back into the store. Replay is single-threaded and
// runs before the file system is published.
type Replayer interface {
	Replay(apply func(Record) error) (ReplayStats, error)
}

// ReplayStats summarizes one boot-time recovery. With checkpointing
// the recovery has two distinct phases — loading the checkpoint image
// and replaying the journal tail past its LSN — reported separately so
// boot-time dashboards can tell a big image from a long tail. The
// combined fields are the sums (and all a store without checkpoints
// fills in).
type ReplayStats struct {
	Records uint64 `json:"records"`
	Bytes   uint64 `json:"bytes"` // journal + image bytes scanned
	NanoSec uint64 `json:"nanos"` // wall time of scan + rebuild

	// Checkpoint-load phase: node/extent records decoded from the
	// checkpoint image. Zero when no image was found.
	CheckpointRecords uint64 `json:"checkpoint_records,omitempty"`
	CheckpointBytes   uint64 `json:"checkpoint_bytes,omitempty"`
	CheckpointNanos   uint64 `json:"checkpoint_nanos,omitempty"`
	// Tail-replay phase: journal records past the image's LSN.
	TailRecords uint64 `json:"tail_records,omitempty"`
	TailBytes   uint64 `json:"tail_bytes,omitempty"`
	TailNanos   uint64 `json:"tail_nanos,omitempty"`
}

// MBps returns the replay throughput in MB/s (0 if the replay was too
// fast to time).
func (r ReplayStats) MBps() float64 { return mbps(r.Bytes, r.NanoSec) }

// CheckpointMBps returns the checkpoint-image load throughput.
func (r ReplayStats) CheckpointMBps() float64 { return mbps(r.CheckpointBytes, r.CheckpointNanos) }

// TailMBps returns the journal tail-replay throughput.
func (r ReplayStats) TailMBps() float64 { return mbps(r.TailBytes, r.TailNanos) }

func mbps(bytes, nanos uint64) float64 {
	if nanos == 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / (float64(nanos) / 1e9)
}

// Epocher exposes the per-boot epoch a durable store persists in its
// journal header. The vfs derives the NFS write verifier from it, so
// acknowledged COMMITs survive a real kill -9: a reopened store has a
// new epoch, hence a new verifier, and clients retransmit exactly the
// unstable data that may have been lost.
type Epocher interface {
	Epoch() uint64
}

// CrashRestarter is implemented by durable stores that can crash for
// real: CrashRestart drops all user-space buffered journal records and
// closes the journal without a final flush or sync — the kill -9
// failure model — then reopens it, scans surviving records, and
// prepares a fresh Replay for the vfs to rebuild from.
type CrashRestarter interface {
	CrashRestart() error
}

// ClockedStore is implemented by durable stores that can attribute
// their group-commit fsync wait to a request's stage clock. The
// clocked variants behave exactly like WriteAt/Commit, additionally
// charging the time this call spent waiting on the WAL sync to the
// clock's fsync stage (stats.StageFsync). Callers pass a nil clock
// when tracing is off; implementations must then behave identically
// to the unclocked methods.
type ClockedStore interface {
	WriteAtClocked(id, off uint64, data []byte, stable bool, t int64, clk *stats.StageClock) error
	CommitClocked(id uint64, clk *stats.StageClock) error
}

// Checkpointer is implemented by durable stores that can bound replay
// with checkpoint images. A checkpoint is PrepareCheckpoint with
// mutations running, Checkpoint with them held off, FinishCheckpoint
// with them running again; the first and last exist so that the
// middle, the only part mutators wait for, is short. Checkpoint alone
// is a complete and correct checkpoint. The caller runs one checkpoint
// at a time.
//
// PrepareCheckpoint does ahead of time whatever of Checkpoint's work
// stays valid while mutations continue (syncing the journal, writing
// dirty content back). It changes nothing recovery reads differently:
// a crash during or after it recovers as if no checkpoint had begun.
// An error means no checkpoint was started.
//
// Checkpoint writes a point-in-time image of the namespace (the node
// records the snapshot callback emits) plus the store's own content
// index, then compacts the journal up to the image's LSN. The caller
// owns quiescence: no LogMeta/WriteAt/Truncate/Commit/
// Remove call may be in flight for the duration (the vfs holds its
// quiesce lock across the call). Concurrent ReadAt is allowed.
// snapshot must call emit once per live node; emit returns an error
// only on image-write failure, which aborts the checkpoint leaving
// the previous images and the full journal intact. nextID and
// nextCookie are the caller's allocation watermarks, persisted in the
// image so recovery never reuses an id (see Watermarker). The
// returned stats are the store's updated running view.
//
// FinishCheckpoint releases what the checkpoint displaced (disk space
// whose freeing is slow) after the caller has dropped quiescence, and
// returns the running view again with that time in DurationMS. Call it
// whether or not Checkpoint succeeded.
type Checkpointer interface {
	PrepareCheckpoint() error
	Checkpoint(nextID, nextCookie uint64, snapshot func(emit func(*NodeRecord) error) error) (CheckpointStats, error)
	FinishCheckpoint() CheckpointStats
	// WALSizeBytes reports the bytes appended to the live journal
	// segment since the last checkpoint (or boot) — the
	// bytes-since-checkpoint trigger for background checkpointing.
	WALSizeBytes() uint64
}

// Watermarker is implemented by stores whose checkpoint images persist
// the id/cookie allocation watermarks. Replaying only node records
// would under-estimate them (ids created and removed before the
// checkpoint vanish from the image, and ids are never reused), so the
// vfs folds these into its counters after Replay.
type Watermarker interface {
	Watermarks() (nextID, nextCookie uint64)
}

// StatsReporter exposes a store's observability counters.
type StatsReporter interface {
	StorageStats() *Stats
}

// Stats is the JSON form of a durable store's counters, embedded in
// the sfssd -stats document and in BENCH JSON counter blocks.
type Stats struct {
	Kind          string             `json:"kind"`
	Epoch         uint64             `json:"epoch"`
	WALAppends    uint64             `json:"wal_appends"`
	WALBytes      uint64             `json:"wal_bytes"`
	Flushes       uint64             `json:"flushes"`
	Fsyncs        uint64             `json:"fsyncs"`
	BatchRecords  stats.HistSnapshot `json:"batch_records"` // records retired per fsync
	ReplayRecords uint64             `json:"replay_records"`
	ReplayBytes   uint64             `json:"replay_bytes"`
	ReplayMBps    float64            `json:"replay_mbps,omitempty"`
	// WALFailures counts journal calls that hit, or were refused
	// because of, a write or fsync error. The journal is fail-stop:
	// once this is nonzero every mutation fails until the store is
	// reopened.
	WALFailures uint64 `json:"wal_failures,omitempty"`
	// Checkpoint and Pager appear only on stores that checkpoint and
	// page (diskstore); omitted elsewhere so memstore deployments keep
	// their exact pre-checkpoint stats documents.
	Checkpoint *CheckpointStats `json:"checkpoint,omitempty"`
	Pager      *PagerStats      `json:"pager,omitempty"`
}

// CheckpointStats describes a store's checkpointing activity. As the
// return value of Checkpointer.Checkpoint it describes that one
// checkpoint; inside Stats it is the running view (Count cumulative,
// Bytes/DurationMS/StallMS from the most recent image,
// WALTruncatedBytes cumulative journal bytes compacted away).
type CheckpointStats struct {
	Count uint64 `json:"count"`
	Bytes uint64 `json:"bytes"`
	// DurationMS is the wall time of the whole checkpoint, all three
	// calls; StallMS is the part of it spent inside Checkpoint, which
	// is how long mutations were held off.
	DurationMS        float64 `json:"duration_ms"`
	StallMS           float64 `json:"stall_ms"`
	WALTruncatedBytes uint64  `json:"wal_truncated_bytes"`
	// Failures counts PrepareCheckpoint and Checkpoint calls that
	// returned an error (each leaves the previous images and the full
	// journal intact). A growing value against a stale Count means
	// checkpointing is stuck and the journal is growing without bound.
	Failures uint64 `json:"failures,omitempty"`
	// Boot-time gauges: throughput of the checkpoint-image load and
	// the journal tail replay of the most recent open (satellite of
	// the recovery figure; also logged by sfssd at boot).
	LoadMBps float64 `json:"load_mbps,omitempty"`
	TailMBps float64 `json:"tail_mbps,omitempty"`
}

// PagerStats describes the cold-extent pager: how much of the content
// working set is resident in memory versus paged from the extent file.
type PagerStats struct {
	HotBytes      uint64 `json:"hot_bytes"`      // residency budget
	ResidentBytes uint64 `json:"resident_bytes"` // hot blocks in memory now
	Faults        uint64 `json:"faults"`         // read-through misses
	Evictions     uint64 `json:"evictions"`      // blocks evicted by CLOCK
	// WriteBackFailures counts evictions abandoned because the dirty
	// victim could not be written to the extent file. Durability is
	// unaffected (the journal holds the data), but a growing value
	// means residency may sit above HotBytes until write-backs succeed.
	WriteBackFailures uint64 `json:"write_back_failures,omitempty"`
}

// MetaOp enumerates journaled namespace/attribute mutations.
type MetaOp uint8

// Journal operation codes. Values are part of the on-disk format;
// append only.
const (
	OpCreate MetaOp = iota + 1
	OpMkdir
	OpSymlink
	OpLink
	OpRemove
	OpRmdir
	OpRename
	OpSetAttr
)

// SetAttr presence bits for MetaRecord.SetMask.
const (
	SetMode uint8 = 1 << iota
	SetUID
	SetGID
	SetSize
	SetMtime
	SetAtime
)

// MetaRecord is one journaled namespace/attribute mutation. It is a
// fixed superset of every MetaOp's fields; unused fields are zero.
// Time is the vfs clock reading (UnixNano) at the operation, used by
// replay for every timestamp the operation set.
type MetaRecord struct {
	Op   MetaOp
	Time int64

	Dir    uint64 // containing (or source) directory id
	Name   string // entry (or source) name
	ID     uint64 // created / linked node id
	Cookie uint64 // directory cookie of the new entry
	Mode   uint32
	UID    uint32
	GID    uint32
	Target string // OpSymlink

	ToDir    uint64 // OpRename destination directory
	ToName   string // OpRename destination name
	ToCookie uint64 // OpRename destination cookie

	SetMask uint8 // OpSetAttr: which fields below apply
	Size    uint64
	Mtime   int64
	Atime   int64
}

// DataRecord is one journaled content extent. The payload travels
// alongside the record in the journal but is applied by the store
// itself during replay, so Record exposes only the header.
type DataRecord struct {
	ID     uint64
	Off    uint64
	Len    uint32
	Stable bool
	Time   int64
}

// DirEntRecord is one directory entry inside a NodeRecord.
type DirEntRecord struct {
	Name   string
	ID     uint64
	Cookie uint64
}

// NodeRecord is one whole node as captured by a checkpoint snapshot:
// the exact attributes, link count, directory entries (with their
// cookies), and symlink target — everything replay needs to restore
// the node bit-for-bit without re-running the MetaOp history that
// built it. Node records never appear in the WAL; they live only in
// checkpoint images, emitted by the vfs snapshot walk and streamed
// back through Replay before any journal tail records.
type NodeRecord struct {
	ID    uint64
	Type  uint8 // vfs.FileType numeric value (1 reg, 2 dir, 3 symlink)
	Mode  uint32
	UID   uint32
	GID   uint32
	Nlink uint32
	Size  uint64
	Atime int64 // UnixNano, as journaled
	Mtime int64
	Ctime int64

	Parent uint64         // TypeDir: id of ".."
	Target string         // TypeSymlink
	Ents   []DirEntRecord // TypeDir
}

// Record is one decoded journal or checkpoint record: exactly one of
// Meta, Data, or Node is non-nil.
type Record struct {
	Meta *MetaRecord
	Data *DataRecord
	Node *NodeRecord
}
