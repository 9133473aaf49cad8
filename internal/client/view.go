package client

import (
	"repro/internal/nfs"
)

// View is the file system interface the path walker and the file
// operations drive. The read-write client (*nfs.Client, over a secure
// channel) implements all of it; read-only mounts (the sfsro dialect)
// implement the read side and fail mutations with EROFS-style errors.
type View interface {
	GetAttr(fh nfs.FH) (nfs.Fattr, error)
	Lookup(dir nfs.FH, name string) (nfs.FH, nfs.Fattr, error)
	Access(fh nfs.FH, want uint32) (uint32, error)
	Readlink(fh nfs.FH) (string, error)
	Read(fh nfs.FH, offset uint64, count uint32) ([]byte, bool, error)
	// ReadStart issues a READ and returns the future that yields its
	// result; File's read-ahead window keeps several outstanding.
	ReadStart(fh nfs.FH, offset uint64, count uint32) (func() ([]byte, bool, error), error)
	ReadDir(dir nfs.FH, cookie uint64, count uint32) ([]nfs.Entry, bool, error)
	IDNames(uids, gids []uint32) ([]string, []string, error)
	Stats() nfs.Stats

	SetAttr(args nfs.SetAttrArgs) (nfs.Fattr, error)
	// WriteStart issues a WRITE and returns the future that yields the
	// acknowledged count and the write verifier; File's write-behind
	// window keeps several outstanding. data may be reused once it
	// returns.
	WriteStart(fh nfs.FH, offset uint64, data []byte, stable uint32) (func() (uint32, uint64, error), error)
	Create(dir nfs.FH, name string, mode uint32, exclusive bool) (nfs.FH, nfs.Fattr, error)
	Mkdir(dir nfs.FH, name string, mode uint32) (nfs.FH, nfs.Fattr, error)
	Symlink(dir nfs.FH, name, target string) (nfs.FH, nfs.Fattr, error)
	Remove(dir nfs.FH, name string) error
	Rmdir(dir nfs.FH, name string) error
	Rename(fromDir nfs.FH, fromName string, toDir nfs.FH, toName string) error
	// Commit flushes unstable writes and returns the server's write
	// verifier (RFC 1813 §4.8); views without unstable state return 0.
	Commit(fh nfs.FH) (uint64, error)
}

// compile-time check: the read-write client satisfies View.
var _ View = (*nfs.Client)(nil)
