// Package nfs implements the NFS version 3 style file protocol that
// SFS clients and servers speak to each other and to the substrate
// file system (paper §3.3).
//
// The SFS read-write protocol is "virtually identical to NFS 3" with
// two extensions that lengthen cache lifetimes:
//
//  1. every file attribute structure returned by the server carries a
//     timeout field or lease, and
//  2. the server can call back to the client to invalidate entries
//     before the lease expires, without waiting for acknowledgment.
//
// The wire encoding here is XDR over ONC RPC, structurally mirroring
// RFC 1813 (procedures, arguments, post-op attributes) without
// claiming byte-compatibility with kernel NFS implementations — the
// kernel is replaced by internal/vfs in this reproduction, as recorded
// in DESIGN.md.
package nfs

import "repro/internal/vfs"

// Program and version numbers.
const (
	Program = 100003
	Version = 3
)

// Procedure numbers (RFC 1813), plus MOUNTROOT standing in for the
// separate MOUNT protocol.
const (
	ProcNull        = 0
	ProcGetAttr     = 1
	ProcSetAttr     = 2
	ProcLookup      = 3
	ProcAccess      = 4
	ProcReadlink    = 5
	ProcRead        = 6
	ProcWrite       = 7
	ProcCreate      = 8
	ProcMkdir       = 9
	ProcSymlink     = 10
	ProcRemove      = 12
	ProcRmdir       = 13
	ProcRename      = 14
	ProcLink        = 15
	ProcReadDir     = 16
	ProcFSInfo      = 19
	ProcCommit      = 21
	ProcMountRoot   = 100 // stands in for the MOUNT protocol
	ProcInvalidate  = 101 // SFS extension: server→client callback
	ProcGetAttrSync = 102 // GETATTR that bypasses the client cache
	// ProcIDNames maps numeric user/group IDs to names. NFS carries
	// bare numbers that mean nothing outside the server's realm;
	// libsfs queries this mapping so utilities can print "%user"
	// names relative to the remote file server (paper §3.3).
	ProcIDNames = 103
)

// Status codes (the subset of nfsstat3 this implementation produces).
const (
	OK             = 0
	ErrPerm        = 1
	ErrNoEnt       = 2
	ErrIO          = 5
	ErrAcces       = 13
	ErrExist       = 17
	ErrNotDir      = 20
	ErrIsDir       = 21
	ErrInval       = 22
	ErrNameTooLong = 63
	ErrNotEmpty    = 66
	ErrStale       = 70
	ErrROFS        = 30
	ErrBadHandle   = 10001
	ErrNotSupp     = 10004
	ErrServerFault = 10006
)

// Write stability levels.
const (
	Unstable = 0
	FileSync = 2
)

// Access bits for the ACCESS procedure.
const (
	AccessRead    = 0x01
	AccessLookup  = 0x02
	AccessModify  = 0x04
	AccessExtend  = 0x08
	AccessDelete  = 0x10
	AccessExecute = 0x20
)

// FH is an opaque file handle. Plain NFS handles are server-chosen
// bytes that must remain secret; SFS handles add redundancy and
// Blowfish encryption so they can be public (paper §3.3).
type FH []byte

// Fattr carries file attributes, the fattr3 of RFC 1813 extended with
// the SFS lease field.
type Fattr struct {
	Type   uint32
	Mode   uint32
	Nlink  uint32
	UID    uint32
	GID    uint32
	Size   uint64
	FileID uint64
	Atime  uint64 // nanoseconds since the epoch
	Mtime  uint64
	Ctime  uint64
	// LeaseMS is the SFS extension: how long, in milliseconds, the
	// client may cache these attributes without revalidation. Zero
	// means no caching promise (plain NFS 3 behaviour).
	LeaseMS uint32
}

// File types in Fattr.Type.
const (
	TypeReg     = 1
	TypeDir     = 2
	TypeSymlink = 5
)

// fattrFromVFS converts substrate attributes to the wire form.
func fattrFromVFS(a vfs.Attr, leaseMS uint32) Fattr {
	var t uint32
	switch a.Type {
	case vfs.TypeReg:
		t = TypeReg
	case vfs.TypeDir:
		t = TypeDir
	case vfs.TypeSymlink:
		t = TypeSymlink
	}
	return Fattr{
		Type: t, Mode: a.Mode, Nlink: a.Nlink, UID: a.UID, GID: a.GID,
		Size: a.Size, FileID: uint64(a.FileID),
		Atime: uint64(a.Atime.UnixNano()), Mtime: uint64(a.Mtime.UnixNano()),
		Ctime:   uint64(a.Ctime.UnixNano()),
		LeaseMS: leaseMS,
	}
}

// SetAttrArgs selects attribute updates; zero Set* fields leave the
// attribute unchanged.
type SetAttrArgs struct {
	FH       FH
	SetMode  *uint32
	SetUID   *uint32
	SetGID   *uint32
	SetSize  *uint64
	SetMtime *uint64
	SetAtime *uint64
}

// Argument and result structures. Results follow the NFS convention
// of a status followed by post-operation attributes.

// FHArgs is the single-handle argument shared by several procedures.
type FHArgs struct{ FH FH }

// AttrRes is a status plus optional post-operation attributes.
type AttrRes struct {
	Status uint32
	Attr   *Fattr
}

// DirOpArgs names an entry within a directory.
type DirOpArgs struct {
	Dir  FH
	Name string
}

// LookupRes carries a resolved (or newly created) handle.
type LookupRes struct {
	Status uint32
	FH     FH
	Attr   *Fattr
	// DirAttr carries post-operation directory attributes on
	// mutating replies (NFS3's wcc_data), so clients can refresh
	// their directory cache instead of discarding it.
	DirAttr *Fattr
}

// AccessArgs requests an access check for a bitmask of operations.
type AccessArgs struct {
	FH     FH
	Access uint32
}

// AccessRes reports which requested access bits are granted.
type AccessRes struct {
	Status uint32
	Attr   *Fattr
	Access uint32
}

// ReadlinkRes returns a symbolic link's target.
type ReadlinkRes struct {
	Status uint32
	Target string
}

// ReadArgs requests count bytes at Offset.
type ReadArgs struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// ReadRes returns file data with an end-of-file marker.
type ReadRes struct {
	Status uint32
	Attr   *Fattr
	Count  uint32
	EOF    bool
	Data   []byte
}

// WriteArgs stores Data at Offset with the given stability level.
type WriteArgs struct {
	FH     FH
	Offset uint64
	Stable uint32
	Data   []byte
}

// WriteRes acknowledges a write. Verf is the server's per-boot write
// verifier (RFC 1813 §4.8): a client holding unstable data compares it
// against the verifier COMMIT later returns, and retransmits when they
// differ — the server rebooted in between and may have lost the data.
type WriteRes struct {
	Status uint32
	Attr   *Fattr
	Count  uint32
	Verf   uint64
}

// CommitRes acknowledges a COMMIT: post-operation attributes plus the
// write verifier the committed data is now stable under.
type CommitRes struct {
	Status uint32
	Attr   *Fattr
	Verf   uint64
}

// CreateArgs creates a regular file, optionally exclusively.
type CreateArgs struct {
	Dir       FH
	Name      string
	Mode      uint32
	Exclusive bool
}

// MkdirArgs creates a directory.
type MkdirArgs struct {
	Dir  FH
	Name string
	Mode uint32
}

// SymlinkArgs creates a symbolic link to Target.
type SymlinkArgs struct {
	Dir    FH
	Name   string
	Target string
}

// RenameArgs moves FromName in FromDir to ToName in ToDir.
type RenameArgs struct {
	FromDir  FH
	FromName string
	ToDir    FH
	ToName   string
}

// LinkArgs creates a hard link to File at Dir/Name.
type LinkArgs struct {
	File FH
	Dir  FH
	Name string
}

// StatusRes is the reply of mutating procedures without a handle.
type StatusRes struct {
	Status uint32
	// DirAttr/DirAttr2 carry post-operation attributes of the
	// affected directories (both for RENAME), NFS3 wcc style.
	DirAttr  *Fattr
	DirAttr2 *Fattr
}

// ReadDirArgs pages through a directory from Cookie.
type ReadDirArgs struct {
	Dir    FH
	Cookie uint64
	Count  uint32 // max entries
}

// Entry is one directory entry, READDIRPLUS style (handle and
// attributes included).
type Entry struct {
	FileID uint64
	Name   string
	Cookie uint64
	FH     FH     // READDIRPLUS-style: handle included
	Attr   *Fattr // and attributes
}

// ReadDirRes returns a page of directory entries.
type ReadDirRes struct {
	Status  uint32
	Entries []Entry
	EOF     bool
}

// FSInfoRes reports server transfer limits.
type FSInfoRes struct {
	Status    uint32
	RTMax     uint32 // max read size
	WTMax     uint32 // max write size
	TimeDelta uint64
}

// MountRootRes returns the root file handle (the MOUNT protocol
// stand-in).
type MountRootRes struct {
	Status uint32
	Root   FH
	Attr   *Fattr
}

// InvalidateArgs is the SFS callback: the server tells the client that
// cached state for FH is no longer valid.
type InvalidateArgs struct {
	FH FH
}

// IDNamesArgs asks the server for the names behind numeric IDs.
type IDNamesArgs struct {
	UIDs []uint32
	GIDs []uint32
}

// IDNamesRes carries the names, parallel to the request; unknown IDs
// map to the empty string.
type IDNamesRes struct {
	Status     uint32
	UserNames  []string
	GroupNames []string
}

// statusFromErr maps substrate errors to wire status codes.
func statusFromErr(err error) uint32 {
	switch err {
	case nil:
		return OK
	case vfs.ErrNotFound:
		return ErrNoEnt
	case vfs.ErrExist:
		return ErrExist
	case vfs.ErrNotDir:
		return ErrNotDir
	case vfs.ErrIsDir:
		return ErrIsDir
	case vfs.ErrNotEmpty:
		return ErrNotEmpty
	case vfs.ErrPerm:
		return ErrAcces
	case vfs.ErrStale:
		return ErrStale
	case vfs.ErrNameTooLong:
		return ErrNameTooLong
	case vfs.ErrInval, vfs.ErrNotSymlink:
		return ErrInval
	default:
		return ErrIO
	}
}

// Error converts a non-OK wire status into a Go error.
type Error uint32

// Error satisfies the error interface.
func (e Error) Error() string {
	switch uint32(e) {
	case ErrPerm:
		return "nfs: operation not permitted"
	case ErrNoEnt:
		return "nfs: no such file or directory"
	case ErrIO:
		return "nfs: I/O error"
	case ErrAcces:
		return "nfs: permission denied"
	case ErrExist:
		return "nfs: file exists"
	case ErrNotDir:
		return "nfs: not a directory"
	case ErrIsDir:
		return "nfs: is a directory"
	case ErrInval:
		return "nfs: invalid argument"
	case ErrNameTooLong:
		return "nfs: name too long"
	case ErrNotEmpty:
		return "nfs: directory not empty"
	case ErrStale:
		return "nfs: stale file handle"
	case ErrROFS:
		return "nfs: read-only file system"
	case ErrBadHandle:
		return "nfs: bad file handle"
	case ErrNotSupp:
		return "nfs: operation not supported"
	default:
		return "nfs: server fault"
	}
}

// StatusErr returns nil for OK and an Error otherwise.
func StatusErr(status uint32) error {
	if status == OK {
		return nil
	}
	return Error(status)
}
