package vfs

// Journal replay: rebuilding the node tree from the MetadataStore's
// surviving records. Replay is single-threaded and runs either before
// the FS is published (NewWithStores) or against a private staging
// tree that is swapped in under every shard lock (Restart), so it
// looks nodes up by direct map access and takes no node lock.
//
// applyRecord changes nothing itself. It finds the nodes a record
// names — refusing a record that names one the tree does not hold —
// and hands them to the transition in apply.go that the live operation
// ran when it wrote the record; only a checkpoint-image node, which no
// live operation writes, is installed here. The id/cookie watermarks
// follow the records because replay allocates nothing. The store has
// already rebuilt its own serving copy (content bytes) from the same
// records, in the same order.

import (
	"fmt"
	"time"

	"repro/internal/storage"
)

func (fs *FS) replayGet(id uint64) *node {
	return fs.shardOf(FileID(id)).nodes[FileID(id)]
}

func (fs *FS) replayDir(id uint64) (*node, error) {
	d := fs.replayGet(id)
	if d == nil || d.attr.Type != TypeDir {
		return nil, fmt.Errorf("vfs: journal references directory %d which does not exist", id)
	}
	return d, nil
}

// replayEntry resolves the directory dir, its entry name, and the node
// the entry names.
func (fs *FS) replayEntry(dir uint64, name string) (d, n *node, err error) {
	if d, err = fs.replayDir(dir); err != nil {
		return nil, nil, err
	}
	ent, ok := d.children[name]
	if !ok {
		return nil, nil, fmt.Errorf("vfs: journal names missing entry %q in %d", name, dir)
	}
	if n = fs.replayGet(uint64(ent.id)); n == nil {
		return nil, nil, fmt.Errorf("vfs: journal entry %q in %d names missing node %d", name, dir, ent.id)
	}
	return d, n, nil
}

func (fs *FS) noteID(id uint64) {
	if id > fs.nextID.Load() {
		fs.nextID.Store(id)
	}
}

func (fs *FS) noteCookie(c uint64) {
	if c > fs.nextCookie.Load() {
		fs.nextCookie.Store(c)
	}
}

// installNode installs a checkpoint-image node verbatim, replacing any
// existing node of the same id (the implicit root from initTree when
// nr.ID is 1). Image records always precede the journal tail, so the
// tail's deltas land on top of these.
func (fs *FS) installNode(nr *storage.NodeRecord) {
	n := &node{
		id: FileID(nr.ID),
		attr: Attr{
			Type: FileType(nr.Type), Mode: nr.Mode,
			UID: nr.UID, GID: nr.GID, Size: nr.Size,
			Atime: time.Unix(0, nr.Atime),
			Mtime: time.Unix(0, nr.Mtime),
			Ctime: time.Unix(0, nr.Ctime),
		},
		parent: FileID(nr.Parent),
		target: nr.Target,
		nlink:  nr.Nlink,
	}
	n.attr.FileID = n.id
	n.attr.Nlink = nr.Nlink
	if n.attr.Type == TypeDir {
		n.children = make(map[string]dirent, len(nr.Ents))
		for _, e := range nr.Ents {
			n.children[e.Name] = dirent{id: FileID(e.ID), cookie: e.Cookie}
			fs.noteCookie(e.Cookie)
		}
	}
	fs.insertNode(n)
	fs.noteID(nr.ID)
}

// applyRecord replays one journal record into the tree.
func (fs *FS) applyRecord(rec storage.Record) error {
	if rec.Node != nil {
		fs.installNode(rec.Node)
		return nil
	}
	if d := rec.Data; d != nil {
		n := fs.replayGet(d.ID)
		if n == nil || n.attr.Type != TypeReg {
			return fmt.Errorf("vfs: journal data record for unknown file %d", d.ID)
		}
		applyData(n, d)
		return nil
	}
	m := rec.Meta
	switch m.Op {
	case storage.OpCreate, storage.OpMkdir, storage.OpSymlink:
		d, err := fs.replayDir(m.Dir)
		if err != nil {
			return err
		}
		fs.applyNewEntry(d, m)
		fs.noteID(m.ID)
		fs.noteCookie(m.Cookie)

	case storage.OpLink:
		d, err := fs.replayDir(m.Dir)
		if err != nil {
			return err
		}
		n := fs.replayGet(m.ID)
		if n == nil {
			return fmt.Errorf("vfs: journal link to unknown file %d", m.ID)
		}
		applyLink(d, n, m)
		fs.noteCookie(m.Cookie)

	case storage.OpRemove, storage.OpRmdir:
		d, n, err := fs.replayEntry(m.Dir, m.Name)
		if err != nil {
			return err
		}
		if m.Op == storage.OpRmdir {
			fs.applyRmdir(d, n, m)
		} else {
			fs.applyRemove(d, n, m)
		}

	case storage.OpRename:
		fd, n, err := fs.replayEntry(m.Dir, m.Name)
		if err != nil {
			return err
		}
		td, err := fs.replayDir(m.ToDir)
		if err != nil {
			return err
		}
		// No checkVictim here: a journal written before PR 22 may hold a
		// rename the live path now refuses, and it replays as it did.
		var o *node
		if old, ok := td.children[m.ToName]; ok && old.id != n.id {
			if o = fs.replayGet(uint64(old.id)); o == nil {
				return fmt.Errorf("vfs: journal rename over %q in %d, which names missing node %d", m.ToName, m.ToDir, old.id)
			}
		}
		fs.applyRename(fd, td, n, o, m)
		fs.noteCookie(m.ToCookie)

	case storage.OpSetAttr:
		n := fs.replayGet(m.ID)
		if n == nil {
			return fmt.Errorf("vfs: journal setattr on unknown file %d", m.ID)
		}
		applySetAttr(n, m)

	default:
		return fmt.Errorf("vfs: journal op %d unknown", m.Op)
	}
	return nil
}

// Restart is a server crash and reboot: the journal drops its
// user-space buffer and closes without a final sync (the kill -9
// model), reopens under a new epoch, and a staging tree rebuilt from
// the surviving records is swapped into the live FS under every
// shard-map lock. Uncommitted unstable writes may be lost; every
// acknowledged COMMIT survives because its fsync already covered it.
// The write verifier changes, so clients retransmit their uncommitted
// unstable writes (RFC 1813 §4.8).
//
// Only a store that implements storage.CrashRestarter can crash apart
// from its process. On any other store Restart returns an error and
// changes nothing. A store that fails to reopen returns its error, and
// the file system has nothing left to serve.
//
// Restart is not atomic against in-flight writes — neither is a real
// crash. Operations holding pre-crash node pointers mutate orphans,
// the same data a real crash would have lost. A write that lands
// mid-restart saw the old verifier when its reply was stamped, so the
// client observes a verifier change and retransmits data that may in
// fact have survived: a redundant retransmission, never a silently
// dropped stability promise.
func (fs *FS) Restart() error {
	cr, ok := fs.blocks.(storage.CrashRestarter)
	if !ok {
		return fmt.Errorf("vfs: store %T cannot crash and restart", fs.blocks)
	}
	rp, ok := fs.meta.(storage.Replayer)
	if !ok {
		return fmt.Errorf("vfs: store %T crashes but cannot replay", fs.meta)
	}
	// Exclusive against mutators AND checkpoints: a checkpoint
	// snapshotting the tree mid-swap would publish a half-restarted
	// image.
	fs.quiesce.Lock()
	defer fs.quiesce.Unlock()
	if err := cr.CrashRestart(); err != nil {
		return err
	}
	staging := &FS{clock: fs.clock, meta: fs.meta, blocks: fs.blocks}
	staging.initTree()
	st, err := rp.Replay(staging.applyRecord)
	if err != nil {
		return err
	}
	staging.foldWatermarks()
	for i := range fs.shards {
		fs.shards[i].mu.Lock()
	}
	for i := range fs.shards {
		fs.shards[i].nodes = staging.shards[i].nodes
	}
	fs.nextID.Store(staging.nextID.Load())
	fs.nextCookie.Store(staging.nextCookie.Load())
	fs.replayed = st
	for i := range fs.shards {
		fs.shards[i].mu.Unlock()
	}
	fs.verf.Store(fs.newVerf())
	return nil
}
