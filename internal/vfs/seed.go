package vfs

import (
	"io/fs"
	"os"
	"path/filepath"
)

// SeedFromHost copies a host directory tree into the file system so
// the daemons can serve real content. Symbolic links are preserved
// (their targets may be self-certifying pathnames). Ownership is
// assigned to cred.
func (f *FS) SeedFromHost(cred Cred, hostDir string) error {
	root, err := filepath.Abs(hostDir)
	if err != nil {
		return err
	}
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			return nil
		}
		rel = filepath.ToSlash(rel)
		switch {
		case d.Type()&fs.ModeSymlink != 0:
			target, err := os.Readlink(path)
			if err != nil {
				return err
			}
			return f.SymlinkAt(cred, rel, target)
		case d.IsDir():
			_, err := f.MkdirAll(cred, rel, 0o755)
			return err
		default:
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			mode := uint32(0o644)
			if info, err := d.Info(); err == nil && info.Mode()&0o100 != 0 {
				mode = 0o755
			}
			return f.WriteFile(cred, rel, data, mode)
		}
	})
}
