package netsim

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/memstore"
	"repro/internal/vfs"
)

// TestDiskStoreCharges is the model's contract as an exact table: what
// one vfs operation over a DiskStore charges. The numbers are the
// parent commit's (385e160), taken from a counting disk installed
// through the hook in vfs that this decorator replaced, over the
// same sequence — except the create-over-existing row, which was
// {0, 0, 0, 0} there: the same truncation through SetAttrs always cost
// its sync, and a store cannot and should not tell the two apart.
func TestDiskStoreCharges(t *testing.T) {
	ms := memstore.New()
	ds := NewDiskStore(ms, ms, &Disk{}) // a zero Disk counts without waiting
	fs, err := vfs.NewWithStores(ds, ds)
	if err != nil {
		t.Fatal(err)
	}
	root := vfs.Cred{UID: 0, GIDs: []uint32{0}}
	var id vfs.FileID
	mode, size := uint32(0o600), uint64(10)
	type charge struct{ reads, writes, syncs, bytes uint64 }
	syncs := func(c DiskCharges) uint64 {
		return c.MetaSyncs + c.TruncateSyncs + c.StableWriteSyncs + c.CommitSyncs
	}
	for _, step := range []struct {
		name string
		op   func() error
		want charge
	}{
		{"create", func() (err error) { id, _, err = fs.Create(root, fs.Root(), "f", 0o644, true); return }, charge{0, 0, 1, 0}},
		{"create over existing", func() (err error) { _, _, err = fs.Create(root, fs.Root(), "f", 0o644, false); return }, charge{0, 0, 1, 0}},
		{"mkdir", func() (err error) { _, _, err = fs.Mkdir(root, fs.Root(), "d", 0o755); return }, charge{0, 0, 1, 0}},
		{"symlink", func() (err error) { _, _, err = fs.Symlink(root, fs.Root(), "s", "f"); return }, charge{0, 0, 1, 0}},
		{"link", func() error { return fs.Link(root, id, fs.Root(), "l") }, charge{0, 0, 1, 0}},
		{"stable write", func() (err error) { _, err = fs.Write(root, id, 0, make([]byte, 100), true); return }, charge{0, 1, 1, 100}},
		{"unstable write", func() (err error) { _, err = fs.Write(root, id, 0, make([]byte, 8192), false); return }, charge{0, 1, 0, 8192}},
		{"read", func() (err error) { _, _, err = fs.Read(root, id, 0, 4096); return }, charge{1, 0, 0, 4096}},
		{"read at eof", func() (err error) { _, _, err = fs.Read(root, id, 8192, 4096); return }, charge{0, 0, 0, 0}},
		{"commit", func() error { return fs.Commit(id) }, charge{0, 0, 1, 0}},
		{"setattr mode", func() (err error) { _, err = fs.SetAttrs(root, id, vfs.SetAttr{Mode: &mode}); return }, charge{0, 0, 0, 0}},
		{"setattr size", func() (err error) { _, err = fs.SetAttrs(root, id, vfs.SetAttr{Size: &size}); return }, charge{0, 0, 1, 0}},
		{"rename", func() error { return fs.Rename(root, fs.Root(), "l", fs.Root(), "m") }, charge{0, 0, 1, 0}},
		{"remove", func() error { return fs.Remove(root, fs.Root(), "m") }, charge{0, 0, 1, 0}},
		{"remove last link", func() error { return fs.Remove(root, fs.Root(), "f") }, charge{0, 0, 1, 0}},
		{"rmdir", func() error { return fs.Rmdir(root, fs.Root(), "d") }, charge{0, 0, 1, 0}},
	} {
		before := ds.Charges()
		if err := step.op(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		after := ds.Charges()
		got := charge{after.Reads - before.Reads, after.Writes - before.Writes, syncs(after) - syncs(before), after.Bytes - before.Bytes}
		if got != step.want {
			t.Errorf("%s charged %+v, want %+v", step.name, got, step.want)
		}
	}
	// By cause: 8 namespace mutations, 2 truncations (the create over
	// the existing file and the SETATTR), 1 stable write, 1 commit.
	want := DiskCharges{Reads: 1, Writes: 2, Bytes: 100 + 8192 + 4096,
		MetaSyncs: 8, TruncateSyncs: 2, StableWriteSyncs: 1, CommitSyncs: 1}
	if got := ds.Charges(); got != want {
		t.Errorf("totals %+v, want %+v", got, want)
	}
}

// failingStore fails every call, so nothing may be charged.
type failingStore struct{}

var errStore = errors.New("store down")

func (failingStore) LogMeta(*storage.MetaRecord) error                 { return errStore }
func (failingStore) Close() error                                      { return errStore }
func (failingStore) ReadAt(id, off uint64, p []byte) error             { return errStore }
func (failingStore) WriteAt(uint64, uint64, []byte, bool, int64) error { return errStore }
func (failingStore) Truncate(id, size uint64) error                    { return errStore }
func (failingStore) Commit(id uint64) error                            { return errStore }
func (failingStore) Remove(id uint64) error                            { return errStore }

func TestDiskStoreFailedCallChargesNothing(t *testing.T) {
	ds := NewDiskStore(failingStore{}, failingStore{}, &Disk{})
	for name, err := range map[string]error{
		"LogMeta":  ds.LogMeta(&storage.MetaRecord{Op: storage.OpCreate}),
		"ReadAt":   ds.ReadAt(1, 0, make([]byte, 8)),
		"WriteAt":  ds.WriteAt(1, 0, make([]byte, 8), true, 0),
		"Truncate": ds.Truncate(1, 0),
		"Commit":   ds.Commit(1),
		"Remove":   ds.Remove(1),
		"Close":    ds.Close(),
	} {
		if !errors.Is(err, errStore) {
			t.Errorf("%s returned %v, want the store's error", name, err)
		}
	}
	if got := ds.Charges(); got != (DiskCharges{}) {
		t.Errorf("failed calls charged %+v", got)
	}
}

// TestDiskStoreConcurrent enters the decorator the way the server's
// dispatch workers do — many goroutines, one file each plus a shared
// directory — and checks no charge is lost (run under -race in CI).
func TestDiskStoreConcurrent(t *testing.T) {
	ms := memstore.New()
	ds := NewDiskStore(ms, ms, &Disk{})
	fs, err := vfs.NewWithStores(ds, ds)
	if err != nil {
		t.Fatal(err)
	}
	root := vfs.Cred{UID: 0, GIDs: []uint32{0}}
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, _, err := fs.Create(root, fs.Root(), string(rune('a'+w)), 0o644, true)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 512)
			for i := 0; i < rounds; i++ {
				if _, err := fs.Write(root, id, 0, buf, i%2 == 0); err != nil {
					t.Error(err)
				}
				if _, _, err := fs.Read(root, id, 0, 512); err != nil {
					t.Error(err)
				}
			}
			if err := fs.Commit(id); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	want := DiskCharges{Reads: workers * rounds, Writes: workers * rounds, Bytes: 2 * 512 * workers * rounds,
		MetaSyncs: workers, StableWriteSyncs: workers * rounds / 2, CommitSyncs: workers}
	if got := ds.Charges(); got != want {
		t.Errorf("charged %+v, want %+v", got, want)
	}
}
