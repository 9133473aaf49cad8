package client

import (
	"crypto/sha1"
	"encoding/binary"

	"repro/internal/nfs"
	"repro/internal/sfsro"
)

// roView adapts the read-only dialect (paper §2.4, §3.2) to the
// client's View interface, so sfscd mounts read-only file systems —
// typically certification authorities replicated on untrusted
// machines — under /sfs exactly like read-write ones. Handles are the
// content hashes of inodes; every fetched byte is verified against
// them, so the view is safe regardless of which replica serves it.
// All mutating operations fail with a read-only file system error.
type roView struct {
	cl *sfsro.Client
}

func newROView(cl *sfsro.Client) *roView { return &roView{cl: cl} }

var _ View = (*roView)(nil)

// rootFH returns the handle of the verified root directory.
func (v *roView) rootFH() nfs.FH { h := v.cl.RootHash(); return h[:] }

func toHash(fh nfs.FH) (sfsro.Hash, error) {
	var h sfsro.Hash
	if len(fh) != sha1.Size {
		return h, nfs.Error(nfs.ErrBadHandle)
	}
	copy(h[:], fh)
	return h, nil
}

// attrOf synthesizes wire attributes for a read-only inode: mode bits
// masked to read/execute, a stable FileID from the hash.
func attrOf(h sfsro.Hash, ino *sfsro.Inode) nfs.Fattr {
	a := nfs.Fattr{
		Type:   uint32(ino.Type),
		Mode:   ino.Mode &^ 0o222, // nothing is writable
		Nlink:  1,
		Size:   ino.Size,
		FileID: binary.BigEndian.Uint64(h[:8]),
	}
	if ino.Type == sfsro.TypeDir {
		a.Mode = 0o555
	}
	if ino.Type == sfsro.TypeSymlink {
		a.Size = uint64(len(ino.Target))
	}
	return a
}

func (v *roView) inode(fh nfs.FH) (sfsro.Hash, *sfsro.Inode, error) {
	h, err := toHash(fh)
	if err != nil {
		return h, nil, err
	}
	ino, err := v.cl.InodeByHash(h)
	if err != nil {
		return h, nil, roErr(err)
	}
	return h, ino, nil
}

func roErr(err error) error {
	switch err {
	case sfsro.ErrNotFound:
		return nfs.Error(nfs.ErrNoEnt)
	case sfsro.ErrVerify:
		return nfs.Error(nfs.ErrIO)
	default:
		return err
	}
}

func (v *roView) GetAttr(fh nfs.FH) (nfs.Fattr, error) {
	h, ino, err := v.inode(fh)
	if err != nil {
		return nfs.Fattr{}, err
	}
	return attrOf(h, ino), nil
}

func (v *roView) Lookup(dir nfs.FH, name string) (nfs.FH, nfs.Fattr, error) {
	_, ino, err := v.inode(dir)
	if err != nil {
		return nil, nfs.Fattr{}, err
	}
	ents, err := v.cl.DirEntries(ino)
	if err != nil {
		return nil, nfs.Fattr{}, roErr(err)
	}
	for _, e := range ents {
		if e.Name == name {
			child, err := v.cl.InodeByHash(e.Inode)
			if err != nil {
				return nil, nfs.Fattr{}, roErr(err)
			}
			return e.Inode[:], attrOf(e.Inode, child), nil
		}
	}
	return nil, nfs.Fattr{}, nfs.Error(nfs.ErrNoEnt)
}

func (v *roView) Access(fh nfs.FH, want uint32) (uint32, error) {
	// Everything readable, nothing writable, directories and
	// executables traversable.
	granted := want & (nfs.AccessRead | nfs.AccessLookup | nfs.AccessExecute)
	return granted, nil
}

func (v *roView) Readlink(fh nfs.FH) (string, error) {
	_, ino, err := v.inode(fh)
	if err != nil {
		return "", err
	}
	if ino.Type != sfsro.TypeSymlink {
		return "", nfs.Error(nfs.ErrInval)
	}
	return ino.Target, nil
}

func (v *roView) Read(fh nfs.FH, offset uint64, count uint32) ([]byte, bool, error) {
	_, ino, err := v.inode(fh)
	if err != nil {
		return nil, false, err
	}
	data, eof, err := v.cl.ReadInodeAt(ino, offset, count)
	if err != nil {
		return nil, false, roErr(err)
	}
	return data, eof, nil
}

// ReadStart defers the verified read to the future, so a read-ahead
// window over a read-only mount fetches and checks each block in the
// order the reader consumes it.
func (v *roView) ReadStart(fh nfs.FH, offset uint64, count uint32) (func() ([]byte, bool, error), error) {
	return func() ([]byte, bool, error) { return v.Read(fh, offset, count) }, nil
}

func (v *roView) ReadDir(dir nfs.FH, cookie uint64, count uint32) ([]nfs.Entry, bool, error) {
	_, ino, err := v.inode(dir)
	if err != nil {
		return nil, false, err
	}
	ents, err := v.cl.DirEntries(ino)
	if err != nil {
		return nil, false, roErr(err)
	}
	out := make([]nfs.Entry, 0, len(ents))
	for i, e := range ents {
		if uint64(i) < cookie {
			continue
		}
		out = append(out, nfs.Entry{
			FileID: binary.BigEndian.Uint64(e.Inode[:8]),
			Name:   e.Name,
			Cookie: uint64(i) + 1,
			FH:     e.Inode[:],
		})
		if count > 0 && uint32(len(out)) >= count {
			return out, uint64(i+1) == uint64(len(ents)), nil
		}
	}
	return out, true, nil
}

func (v *roView) IDNames(uids, gids []uint32) ([]string, []string, error) {
	return nil, nil, nfs.Error(nfs.ErrNotSupp)
}

func (v *roView) Stats() nfs.Stats { return nfs.Stats{} }

// Mutations: a read-only file system.

var errROFS = nfs.Error(nfs.ErrROFS)

func (v *roView) SetAttr(nfs.SetAttrArgs) (nfs.Fattr, error) { return nfs.Fattr{}, errROFS }
func (v *roView) WriteStart(nfs.FH, uint64, []byte, uint32) (func() (uint32, uint64, error), error) {
	return nil, errROFS
}
func (v *roView) Create(nfs.FH, string, uint32, bool) (nfs.FH, nfs.Fattr, error) {
	return nil, nfs.Fattr{}, errROFS
}
func (v *roView) Mkdir(nfs.FH, string, uint32) (nfs.FH, nfs.Fattr, error) {
	return nil, nfs.Fattr{}, errROFS
}
func (v *roView) Symlink(nfs.FH, string, string) (nfs.FH, nfs.Fattr, error) {
	return nil, nfs.Fattr{}, errROFS
}
func (v *roView) Remove(nfs.FH, string) error                 { return errROFS }
func (v *roView) Rmdir(nfs.FH, string) error                  { return errROFS }
func (v *roView) Rename(nfs.FH, string, nfs.FH, string) error { return errROFS }
func (v *roView) Commit(nfs.FH) (uint64, error)               { return 0, nil }
