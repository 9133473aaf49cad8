package diskstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// TestCrashCorruptionFuzz is the crash-safety sweep the issue asks
// for: randomized workloads are cut short by a crash, then ONE of the
// durability artifacts (WAL segments or checkpoint images) is torn or
// bit-flipped. Recovery must never panic, must always come up (single
// -file damage is within the design's fault budget: two image
// generations, journal chain covering the older one), and must serve
// some valid prefix of the acknowledged history — never a state that
// no prefix of the workload produced.
//
// The extent file is deliberately not corrupted: it carries no
// per-block CRCs by design — every delta from the image is re-derived
// from the journal, and image-referenced slots are only trusted
// because the image's own CRCs vouch for the index, not the payload
// bytes' history. Content-plane scrubbing is out of scope here.
func TestCrashCorruptionFuzz(t *testing.T) {
	targets := []string{LogName, LogName + ".prev", CkptName, CkptPrevName, ""}
	for iter := 0; iter < 30; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter=%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(iter)))
			dir := t.TempDir()
			s, err := Open(dir, Options{HotBytes: 64 << 10})
			if err != nil {
				t.Fatal(err)
			}
			drainReplay(t, s)

			// The model: per-op snapshots of every live file's bytes.
			files := map[uint64][]byte{}
			snap := func() map[uint64][]byte {
				c := make(map[uint64][]byte, len(files))
				for id, b := range files {
					c[id] = append([]byte(nil), b...)
				}
				return c
			}
			var hist []map[uint64][]byte
			hist = append(hist, snap())

			nextID := uint64(2)
			ids := func() []uint64 {
				out := make([]uint64, 0, len(files))
				for id := range files {
					out = append(out, id)
				}
				return out
			}
			nOps := 25 + rng.Intn(25)
			for op := 0; op < nOps; op++ {
				switch k := rng.Intn(10); {
				case k < 5 || len(files) == 0: // write (new or existing file)
					id := nextID
					if len(files) > 0 && rng.Intn(3) > 0 {
						id = ids()[rng.Intn(len(files))]
					} else {
						nextID++
					}
					off := uint64(rng.Intn(3 * storage.BlockSize))
					n := 1 + rng.Intn(2*storage.BlockSize)
					data := make([]byte, n)
					for i := range data {
						data[i] = byte(rng.Intn(256))
					}
					stable := rng.Intn(3) == 0
					if err := s.Write(id, off, data, stable, int64(op), nil); err != nil {
						t.Fatal(err)
					}
					old := files[id]
					if need := off + uint64(n); uint64(len(old)) < need {
						old = append(old, make([]byte, need-uint64(len(old)))...)
					}
					copy(old[off:], data)
					files[id] = old
				case k < 6: // truncate
					id := ids()[rng.Intn(len(files))]
					size := uint64(rng.Intn(3 * storage.BlockSize))
					if err := s.LogMeta(&storage.MetaRecord{Op: storage.OpSetAttr, ID: id, SetMask: storage.SetSize, Size: size}); err != nil {
						t.Fatal(err)
					}
					if err := s.Truncate(id, size); err != nil {
						t.Fatal(err)
					}
					old := files[id]
					if uint64(len(old)) > size {
						old = old[:size]
					} else {
						old = append(old, make([]byte, size-uint64(len(old)))...)
					}
					files[id] = old
				case k < 7: // remove
					id := ids()[rng.Intn(len(files))]
					if err := s.LogMeta(&storage.MetaRecord{Op: storage.OpRemove, Dir: 1, Name: "f", ID: id}); err != nil {
						t.Fatal(err)
					}
					if err := s.Remove(id); err != nil {
						t.Fatal(err)
					}
					delete(files, id)
				case k < 9: // commit (sync point)
					if err := s.Commit(uint64(op), nil); err != nil {
						t.Fatal(err)
					}
				default: // checkpoint
					var nodes []storage.NodeRecord
					for id, b := range files {
						nodes = append(nodes, regNode(id, uint64(len(b))))
					}
					checkpointT(t, s, nextID, uint64(op+1), nodes...)
				}
				hist = append(hist, snap())
			}

			// Crash: drop user-space state, keep what reached the OS.
			if err := s.w.Crash(); err != nil {
				t.Fatal(err)
			}
			s.pg.close()

			// Corrupt one durability artifact (or none), if it exists.
			if name := targets[rng.Intn(len(targets))]; name != "" {
				path := filepath.Join(dir, name)
				if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
					if rng.Intn(2) == 0 {
						data = data[:rng.Intn(len(data))] // torn tail
					} else {
						for i := 1 + rng.Intn(3); i > 0; i-- {
							data[rng.Intn(len(data))] ^= 1 << rng.Intn(8)
						}
					}
					if err := os.WriteFile(path, data, 0o600); err != nil {
						t.Fatal(err)
					}
				}
			}

			s2, err := Open(dir, Options{HotBytes: 64 << 10})
			if err != nil {
				t.Fatalf("recovery after single-file corruption failed: %v", err)
			}
			defer s2.Close()
			drainReplay(t, s2)

			// The recovered state must equal SOME per-op snapshot: check
			// from newest to oldest, comparing every live file's bytes.
			// (Files absent from a snapshot aren't checked — removed ids'
			// orphaned content is invisible above the diskstore.)
			matches := func(m map[uint64][]byte) bool {
				for id, want := range m {
					if len(want) == 0 {
						continue
					}
					got := make([]byte, len(want))
					if err := s2.ReadAt(id, 0, got); err != nil {
						return false
					}
					if !bytes.Equal(got, want) {
						return false
					}
				}
				return true
			}
			ok := false
			for i := len(hist) - 1; i >= 0; i-- {
				if matches(hist[i]) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatal("recovered state matches no prefix of the acked history")
			}
		})
	}
}
