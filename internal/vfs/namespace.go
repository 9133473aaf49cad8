package vfs

// Namespace operations: each checks permissions, takes the locks of
// the lock hierarchy, builds one journal record, applies it through
// the transition in apply.go, and journals it before unlocking.

import (
	"sort"

	"repro/internal/storage"
)

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
		a := attrOf(d)
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
		a := attrOf(p)
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
	a := attrOf(n)
	n.mu.RUnlock()
	return a.FileID, a, nil
}

// Create makes a regular file owned by cred in dir. If exclusive is
// set an existing name fails with ErrExist; otherwise an existing
// regular file is truncated and returned.
func (fs *FS) Create(cred Cred, dir FileID, name string, mode uint32, exclusive bool) (FileID, Attr, error) {
	return fs.newEntry(cred, dir, storage.MetaRecord{Op: storage.OpCreate, Name: name, Mode: mode & 0o7777}, exclusive)
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(cred Cred, dir FileID, name string, mode uint32) (FileID, Attr, error) {
	return fs.newEntry(cred, dir, storage.MetaRecord{Op: storage.OpMkdir, Name: name, Mode: mode & 0o7777}, true)
}

// Symlink creates a symbolic link to target.
func (fs *FS) Symlink(cred Cred, dir FileID, name, target string) (FileID, Attr, error) {
	return fs.newEntry(cred, dir, storage.MetaRecord{Op: storage.OpSymlink, Name: name, Mode: 0o777, Target: target}, true)
}

// newEntry is Create, Mkdir and Symlink: rec arrives naming the kind,
// the entry, the mode and (for a symlink) the target, and leaves
// completed, applied and journaled. Only a non-exclusive Create gets
// past an existing name, by truncating a regular file it may write.
func (fs *FS) newEntry(cred Cred, dir FileID, rec storage.MetaRecord, exclusive bool) (FileID, Attr, error) {
	fs.quiesce.RLock()
	defer fs.quiesce.RUnlock()
	if err := checkName(rec.Name); err != nil {
		return 0, Attr{}, err
	}
	if len(rec.Target) > 4096 {
		return 0, Attr{}, ErrNameTooLong
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
		ent, ok := d.children[rec.Name]
		if !ok {
			// One clock reading stamps the node, the directory touch
			// and the journal record.
			rec.Time = fs.clock().UnixNano()
			rec.Dir = uint64(d.id)
			rec.ID = fs.nextID.Add(1)
			rec.Cookie = fs.cookie()
			rec.UID, rec.GID = cred.UID, NobodyGID
			if len(cred.GIDs) > 0 {
				rec.GID = cred.GIDs[0]
			}
			a := fs.applyNewEntry(d, &rec)
			// Journal while d is still locked, so log order matches
			// serialization order and the create precedes any record
			// that references the new id.
			err := fs.meta.LogMeta(&rec)
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
		n, ok := fs.lockChild(d, rec.Name, ent.id)
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
		var zero uint64
		a, err := fs.setAttr(n, SetAttr{Size: &zero})
		d.mu.Unlock()
		n.mu.Unlock()
		if err != nil {
			return 0, Attr{}, err
		}
		return a.FileID, a, nil
	}
}

func (fs *FS) cookie() uint64 { return fs.nextCookie.Add(1) }

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
	rec := storage.MetaRecord{
		Op: storage.OpLink, Time: fs.clock().UnixNano(),
		Dir: uint64(d.id), Name: name, ID: uint64(n.id), Cookie: fs.cookie(),
	}
	applyLink(d, n, &rec)
	logErr := fs.meta.LogMeta(&rec)
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
		rec := storage.MetaRecord{
			Op: storage.OpRemove, Time: fs.clock().UnixNano(),
			Dir: uint64(d.id), Name: name,
		}
		if fs.applyRemove(d, n, &rec) {
			// Last link gone: release the content. Durability of the
			// removal rides on the OpRemove record.
			fs.blocks.Remove(uint64(n.id)) //nolint:errcheck
		}
		logErr := fs.meta.LogMeta(&rec)
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
		rec := storage.MetaRecord{
			Op: storage.OpRmdir, Time: fs.clock().UnixNano(),
			Dir: uint64(d.id), Name: name,
		}
		fs.applyRmdir(d, n, &rec)
		logErr := fs.meta.LogMeta(&rec)
		d.mu.Unlock()
		n.mu.Unlock()
		if logErr != nil {
			return ioErr(logErr)
		}
		return nil
	}
}

// Rename moves fromName in fromDir to toName in toDir, replacing an
// existing target of the same kind (an empty directory, for a
// directory). A directory cannot move into its own subtree (ErrInval).
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
	// moves is set once the rename is known to give a directory a new
	// parent; renameMu is then held until return.
	moves := false
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
		// A node's type never changes, so it can be read before n is
		// locked. renameMu orders before node locks: drop them, take
		// it, start over.
		if n.attr.Type == TypeDir && fd != td && !moves {
			unlockAll(dirs)
			fs.renameMu.Lock()
			defer fs.renameMu.Unlock()
			moves = true
			continue
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

		// All involved nodes are locked.
		if o != nil {
			if err := checkVictim(n, o); err != nil {
				unlockAll(locked)
				return err
			}
		}
		if moves && fs.isAncestor(n, td) {
			unlockAll(locked)
			return ErrInval
		}
		rec := storage.MetaRecord{
			Op: storage.OpRename, Time: fs.clock().UnixNano(),
			Dir: uint64(fd.id), Name: fromName,
			ToDir: uint64(td.id), ToName: toName, ToCookie: fs.cookie(),
		}
		if fs.applyRename(fd, td, n, o, &rec) {
			fs.blocks.Remove(uint64(o.id)) //nolint:errcheck
		}
		logErr := fs.meta.LogMeta(&rec)
		unlockAll(locked)
		if logErr != nil {
			return ioErr(logErr)
		}
		return nil
	}
}

// checkVictim says whether a rename may put n where o is: like
// replaces like, and a replaced directory must be empty.
func checkVictim(n, o *node) error {
	switch nDir, oDir := n.attr.Type == TypeDir, o.attr.Type == TypeDir; {
	case oDir && !nDir:
		return ErrIsDir
	case nDir && !oDir:
		return ErrNotDir
	case len(o.children) != 0:
		return ErrNotEmpty
	}
	return nil
}

// isAncestor reports whether directory n is d or above it. The caller
// holds renameMu and d's lock. The directories above d are read
// unlocked: each has an entry, so none can be removed, and parent is
// rewritten only under renameMu.
func (fs *FS) isAncestor(n, d *node) bool {
	for d != n {
		p, err := fs.get(d.parent)
		if err != nil || p == d {
			return false // reached the root
		}
		d = p
	}
	return true
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
