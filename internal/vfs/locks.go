package vfs

// The striped node table and the lock hierarchy of the package comment:
// looking a node up, locking it, locking several in ascending id
// order, and the contention counters that make hot stripes visible.

import (
	"sort"
	"sync"
	"sync/atomic"
)

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
