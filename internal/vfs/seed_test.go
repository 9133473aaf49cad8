package vfs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSeedFromHostAndDumpToHost(t *testing.T) {
	src := t.TempDir()
	if err := os.MkdirAll(filepath.Join(src, "sub/deep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "top.txt"), []byte("top"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "sub/deep/leaf.bin"), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "sub/run.sh"), []byte("#!/bin/sh\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/sfs/host:abc", filepath.Join(src, "link")); err != nil {
		t.Fatal(err)
	}

	fs := New()
	cred := Cred{UID: 0}
	if err := fs.SeedFromHost(cred, src); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(cred, "top.txt")
	if err != nil || string(data) != "top" {
		t.Fatalf("top.txt: %q %v", data, err)
	}
	data, err = fs.ReadFile(cred, "sub/deep/leaf.bin")
	if err != nil || len(data) != 3 {
		t.Fatalf("leaf: %v %v", data, err)
	}
	id, _, err := fs.Resolve(cred, "sub/run.sh")
	if err != nil {
		t.Fatal(err)
	}
	attr, _ := fs.GetAttr(id)
	if attr.Mode&0o100 == 0 {
		t.Fatal("executable bit lost")
	}
	_, external, err := fs.Resolve(cred, "link")
	if err != nil || external != "/sfs/host:abc" {
		t.Fatalf("symlink: %q %v", external, err)
	}

	// Round trip back to the host.
	dst := t.TempDir()
	if err := fs.DumpToHost(cred, dst); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(filepath.Join(dst, "sub/deep/leaf.bin"))
	if err != nil || len(back) != 3 {
		t.Fatalf("dumped leaf: %v %v", back, err)
	}
	target, err := os.Readlink(filepath.Join(dst, "link"))
	if err != nil || target != "/sfs/host:abc" {
		t.Fatalf("dumped symlink: %q %v", target, err)
	}
}

// DumpToHost writes the file system's tree under hostDir, inverting
// SeedFromHost.
func (f *FS) DumpToHost(cred Cred, hostDir string) error {
	var walk func(dir FileID, rel string) error
	walk = func(dir FileID, rel string) error {
		ents, _, err := f.ReadDir(cred, dir, 0, 0)
		if err != nil {
			return err
		}
		for _, e := range ents {
			attr, err := f.GetAttr(e.FileID)
			if err != nil {
				return err
			}
			hostPath := filepath.Join(hostDir, filepath.FromSlash(rel), e.Name)
			switch attr.Type {
			case TypeDir:
				if err := os.MkdirAll(hostPath, 0o755); err != nil {
					return err
				}
				if err := walk(e.FileID, strings.TrimPrefix(rel+"/"+e.Name, "/")); err != nil {
					return err
				}
			case TypeSymlink:
				target, err := f.Readlink(e.FileID)
				if err != nil {
					return err
				}
				os.Remove(hostPath) //nolint:errcheck // replace if present
				if err := os.Symlink(target, hostPath); err != nil {
					return err
				}
			default:
				data, _, err := f.Read(cred, e.FileID, 0, uint32(attr.Size))
				if err != nil {
					return err
				}
				if err := os.MkdirAll(filepath.Dir(hostPath), 0o755); err != nil {
					return err
				}
				if err := os.WriteFile(hostPath, data, os.FileMode(attr.Mode&0o777)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := os.MkdirAll(hostDir, 0o755); err != nil {
		return err
	}
	return walk(f.Root(), "")
}
