package vfs

// The transition set: every change to a published node — entries, link
// counts, attributes, parent pointers, death — is one of the functions
// below applying one journal record to nodes its caller has resolved.
// A live operation checks permissions, takes the locks, builds the
// record, applies it and journals it; replay (applyRecord) looks the
// same nodes up in the tree it is rebuilding and applies the same
// record. Replay reproduces the live tree because there is nothing
// else either of them could have run. tools_test.go's
// TestNodeFieldsChangeInApplyOnly keeps it so.
//
// Every timestamp comes from the record, never from the clock, and no
// function here touches the stores: a live caller does its store work
// around the call, and during replay the store has already rebuilt its
// own content from the same records.

import (
	"time"

	"repro/internal/storage"
)

func touchDir(d *node, t time.Time) {
	d.attr.Mtime, d.attr.Ctime = t, t
}

// attrOf is n's attributes as callers see them, link count included.
func attrOf(n *node) Attr {
	a := n.attr
	a.Nlink = n.nlink
	return a
}

// kill marks n dead and unpublishes it (node → shard-map order, rule 1).
func (fs *FS) kill(n *node) {
	n.dead = true
	fs.deleteNode(n)
}

// applyNewEntry applies an OpCreate, OpMkdir or OpSymlink record: it
// builds node m.ID, publishes it, and enters it in d under m.Name. The
// attributes are returned rather than the node because they are taken
// before publication, while nothing else can reach it.
func (fs *FS) applyNewEntry(d *node, m *storage.MetaRecord) Attr {
	t := time.Unix(0, m.Time)
	n := &node{
		id: FileID(m.ID),
		attr: Attr{
			Type: TypeReg, Mode: m.Mode, UID: m.UID, GID: m.GID,
			FileID: FileID(m.ID), Atime: t, Mtime: t, Ctime: t,
		},
		nlink: 1,
	}
	switch m.Op {
	case storage.OpMkdir:
		n.attr.Type = TypeDir
		n.children = make(map[string]dirent)
		n.nlink = 2
		n.parent = d.id
		d.nlink++
	case storage.OpSymlink:
		n.attr.Type = TypeSymlink
		n.target = m.Target
		n.attr.Size = uint64(len(m.Target))
	}
	a := attrOf(n)
	fs.insertNode(n)
	d.children[m.Name] = dirent{id: n.id, cookie: m.Cookie}
	touchDir(d, t)
	return a
}

// applyLink applies an OpLink record: n gains the name m.Name in d.
func applyLink(d, n *node, m *storage.MetaRecord) {
	t := time.Unix(0, m.Time)
	d.children[m.Name] = dirent{id: n.id, cookie: m.Cookie}
	n.nlink++
	n.attr.Ctime = t
	touchDir(d, t)
}

// applyRemove applies an OpRemove record: n loses the name m.Name in
// d. It reports whether that was the last link, in which case n is
// dead and a live caller releases its content.
func (fs *FS) applyRemove(d, n *node, m *storage.MetaRecord) (last bool) {
	t := time.Unix(0, m.Time)
	delete(d.children, m.Name)
	n.nlink--
	if n.nlink == 0 {
		fs.kill(n)
		last = true
	} else {
		n.attr.Ctime = t
	}
	touchDir(d, t)
	return last
}

// applyRmdir applies an OpRmdir record: directory n, entered in d as
// m.Name, is gone.
func (fs *FS) applyRmdir(d, n *node, m *storage.MetaRecord) {
	delete(d.children, m.Name)
	fs.kill(n)
	d.nlink--
	touchDir(d, time.Unix(0, m.Time))
}

// applyRename applies an OpRename record: n moves from m.Name in fd to
// m.ToName in td, replacing the victim o when there is one. It reports
// whether the victim was a file that lost its last link.
func (fs *FS) applyRename(fd, td, n, o *node, m *storage.MetaRecord) (last bool) {
	if o != nil {
		if o.attr.Type == TypeDir {
			fs.kill(o)
			td.nlink--
		} else {
			o.nlink--
			if o.nlink == 0 {
				fs.kill(o)
				last = true
			}
		}
	}
	delete(fd.children, m.Name)
	td.children[m.ToName] = dirent{id: n.id, cookie: m.ToCookie}
	// parent is written only when it changes: those renames hold
	// renameMu, which is what lets isAncestor read it unlocked.
	if n.attr.Type == TypeDir && fd != td {
		n.parent = td.id
		fd.nlink--
		td.nlink++
	}
	t := time.Unix(0, m.Time)
	touchDir(fd, t)
	touchDir(td, t)
	return last
}

// applySetAttr applies an OpSetAttr record to n.
func applySetAttr(n *node, m *storage.MetaRecord) {
	if m.SetMask&storage.SetMode != 0 {
		n.attr.Mode = m.Mode
	}
	if m.SetMask&storage.SetUID != 0 {
		n.attr.UID = m.UID
	}
	if m.SetMask&storage.SetGID != 0 {
		n.attr.GID = m.GID
	}
	if m.SetMask&storage.SetSize != 0 {
		n.attr.Size = m.Size
	}
	if m.SetMask&storage.SetMtime != 0 {
		n.attr.Mtime = time.Unix(0, m.Mtime)
	}
	if m.SetMask&storage.SetAtime != 0 {
		n.attr.Atime = time.Unix(0, m.Atime)
	}
	n.attr.Ctime = time.Unix(0, m.Time)
}

// applyData applies a content-extent record to file n: the extent may
// extend it, and stamps it.
func applyData(n *node, d *storage.DataRecord) {
	if end := d.Off + uint64(d.Len); end > n.attr.Size {
		n.attr.Size = end
	}
	t := time.Unix(0, d.Time)
	n.attr.Mtime, n.attr.Ctime = t, t
}
