package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// segmentHeader is a valid header for a segment of base 0, epoch 1.
func segmentHeader() []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint64(hdr[8:], 1)
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(hdr[:24]))
	return hdr
}

// parseBody is the reference parser: the records a segment body holds
// up to its first torn or corrupt frame, parsed from memory the way
// recovery did when it read segments whole.
func parseBody(body []byte) (records [][]byte, valid int, torn bool) {
	for valid < len(body) {
		if valid+frameSize > len(body) {
			return records, valid, true
		}
		n := int(binary.LittleEndian.Uint32(body[valid:]))
		crc := binary.LittleEndian.Uint32(body[valid+4:])
		if n <= 0 || n > maxRecord || valid+frameSize+n > len(body) {
			return records, valid, true
		}
		payload := body[valid+frameSize : valid+frameSize+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return records, valid, true
		}
		records = append(records, payload)
		valid += frameSize + n
	}
	return records, valid, false
}

// scanCopies scans segment and returns a copy of every payload
// replayed, failing on a seq out of order.
func scanCopies(t *testing.T, segment []byte) (segInfo, [][]byte) {
	t.Helper()
	var got [][]byte
	seg, err := scanSegment(bytes.NewReader(segment), int64(len(segment)), func(seq uint64, p []byte) error {
		if seq != uint64(len(got))+1 {
			t.Fatalf("record %d replayed as seq %d", len(got)+1, seq)
		}
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seg, got
}

// FuzzScanSegment feeds recovery segment bodies no append wrote: torn
// frames, flipped bits, lengths past the file or past maxRecord. The
// scan must never panic, must replay exactly the records the reference
// parser finds before the first bad frame, and, once the segment is
// cut at its valid prefix, must read that prefix again with nothing
// torn.
func FuzzScanSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		segment := append(segmentHeader(), body...)
		want, valid, torn := parseBody(body)
		seg, got := scanCopies(t, segment)
		if !seg.hdrOK || seg.torn != torn || seg.bytes != uint64(valid) || seg.records != uint64(len(want)) {
			t.Fatalf("scan = %+v; reference: %d records in %d bytes, torn %v", seg, len(want), valid, torn)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d replayed %x, reference %x", i+1, got[i], want[i])
			}
		}
		// The segment as truncSeg leaves it.
		again, got := scanCopies(t, segment[:headerSize+seg.bytes])
		if again.torn || again.bytes != seg.bytes || len(got) != len(want) {
			t.Fatalf("rescan of the cut segment = %+v, %d records; want %d bytes, %d records, not torn", again, len(got), seg.bytes, len(want))
		}
	})
}

// TestScanSegmentMemoryBounded: recovery allocates the same small
// amount whatever the journal tail's length. Two tails of 4 KiB
// records, the second ten times the first, each allocate under a
// fixed bound: the read-ahead buffer plus one payload buffer.
func TestScanSegmentMemoryBounded(t *testing.T) {
	const record = 4 << 10
	const bound = scanBuffer + 2*record
	for _, tail := range []int{1 << 20, 10 << 20} {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, _ := openT(t, path, Options{})
		for i := 0; i < tail/record; i++ {
			if err := w.Append(record, func(dst []byte) { dst[0] = byte(i) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		var records int
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seg, err := scanSegment(f, st.Size(), func(uint64, []byte) error { records++; return nil })
		runtime.ReadMemStats(&after)
		f.Close()
		if err != nil || seg.torn || records != tail/record {
			t.Fatalf("%d B tail: scan %+v, %d records, %v", tail, seg, records, err)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d B tail: scan allocated %d B", tail, alloc)
		if alloc > bound {
			t.Fatalf("%d B tail: scan allocated %d B, bound %d B", tail, alloc, bound)
		}
	}
}
