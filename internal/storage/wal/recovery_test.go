package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// buildSegment is a segment file as Rotate and Append leave it: a
// header (epoch, base) and one record per seq base+1..base+n, each
// payload naming its seq.
func buildSegment(epoch, base uint64, n int) []byte {
	seg := make([]byte, headerSize)
	copy(seg, magic)
	binary.LittleEndian.PutUint64(seg[8:], epoch)
	binary.LittleEndian.PutUint64(seg[16:], base)
	binary.LittleEndian.PutUint32(seg[24:], crc32.ChecksumIEEE(seg[:24]))
	for seq := base + 1; seq <= base+uint64(n); seq++ {
		p := []byte(fmt.Sprintf("rec-%d", seq))
		var fr [frameSize]byte
		binary.LittleEndian.PutUint32(fr[:], uint32(len(p)))
		binary.LittleEndian.PutUint32(fr[4:], crc32.ChecksumIEEE(p))
		seg = append(append(seg, fr[:]...), p...)
	}
	return seg
}

// The matrix's chain: .prev holds seqs 1..3 (epoch 4, base 0) and the
// current segment seqs 4..6 (epoch 7, base 3), or 6..8 (base 5) when
// it starts past a gap. A torn segment loses the second half of its
// last record; a bad header has one bit of its base flipped, so its
// CRC fails.
const (
	prevEpoch = 4
	curEpoch  = 7
)

// drawn stands for an epoch Open drew at random, which it draws from
// the upper half of the space: a chain with no good header that is not
// new must not issue epoch 1 again.
const drawn = 1 << 63

func tear(seg []byte) []byte   { return seg[:len(seg)-3] }
func badHdr(seg []byte) []byte { seg[16] ^= 0x04; return seg }

var (
	matrixPrev = map[string][]byte{
		"absent": nil,
		"intact": buildSegment(prevEpoch, 0, 3),
		"torn":   tear(buildSegment(prevEpoch, 0, 3)),
		"badhdr": badHdr(buildSegment(prevEpoch, 0, 3)),
	}
	matrixCur = map[string][]byte{
		"empty":  {},
		"badhdr": badHdr(buildSegment(curEpoch, 3, 3)),
		"intact": buildSegment(curEpoch, 3, 3),
		"torn":   tear(buildSegment(curEpoch, 3, 3)),
		"gap":    buildSegment(curEpoch, 5, 3),
	}
)

// matrixSkip gives SkipBelow for each column: none, inside .prev, at
// the current segment's base (5 for the gap segment, 3 otherwise), and
// past the chain's tail.
func matrixSkip(col, cur string) uint64 {
	switch col {
	case "inside":
		return 2
	case "curbase":
		if cur == "gap" {
			return 5
		}
		return 3
	case "past":
		return 10
	}
	return 0
}

// recovered is what one Open of the matrix reports. from..to are the
// seqs replayed (before the caller's SkipBelow filter), 0..0 for none.
type recovered struct {
	from, to              uint64
	epoch, chainBase, seq uint64
	records               uint64
	truncated             bool
	prev                  bool // wal.log.prev exists after Open
}

// TestRecoveryMatrix pins what Open recovers from every pairing of a
// .prev and a current segment, at SkipBelow below, inside, at and past
// the chain: the records replayed, the epoch, ChainBase and Seq it
// reports, the ReplayInfo summary, which segment files it leaves, and
// that a record synced after it replays above SkipBelow at the next
// Open.
func TestRecoveryMatrix(t *testing.T) {
	type row struct {
		prev, cur, skip string
		want            recovered
	}
	rows := []row{
		// .prev absent
		{"absent", "empty", "zero", recovered{0, 0, 1, 0, 0, 0, false, false}},
		{"absent", "empty", "inside", recovered{0, 0, drawn, 2, 2, 0, false, false}},
		{"absent", "empty", "curbase", recovered{0, 0, drawn, 3, 3, 0, false, false}},
		{"absent", "empty", "past", recovered{0, 0, drawn, 10, 10, 0, false, false}},
		{"absent", "badhdr", "zero", recovered{0, 0, drawn, 0, 0, 0, true, false}},
		{"absent", "badhdr", "inside", recovered{0, 0, drawn, 2, 2, 0, true, false}},
		{"absent", "badhdr", "curbase", recovered{0, 0, drawn, 3, 3, 0, true, false}},
		{"absent", "badhdr", "past", recovered{0, 0, drawn, 10, 10, 0, true, false}},
		{"absent", "intact", "zero", recovered{4, 6, 8, 3, 6, 3, false, false}},
		{"absent", "intact", "inside", recovered{4, 6, 8, 3, 6, 3, false, false}},
		{"absent", "intact", "curbase", recovered{4, 6, 8, 3, 6, 3, false, false}},
		{"absent", "intact", "past", recovered{4, 6, 8, 3, 10, 3, false, true}},
		{"absent", "torn", "zero", recovered{4, 5, 8, 3, 5, 2, true, false}},
		{"absent", "torn", "inside", recovered{4, 5, 8, 3, 5, 2, true, false}},
		{"absent", "torn", "curbase", recovered{4, 5, 8, 3, 5, 2, true, false}},
		{"absent", "torn", "past", recovered{4, 5, 8, 3, 10, 2, true, true}},
		{"absent", "gap", "zero", recovered{6, 8, 8, 5, 8, 3, false, false}},
		{"absent", "gap", "inside", recovered{6, 8, 8, 5, 8, 3, false, false}},
		{"absent", "gap", "curbase", recovered{6, 8, 8, 5, 8, 3, false, false}},
		{"absent", "gap", "past", recovered{6, 8, 8, 5, 10, 3, false, true}},
		// .prev intact
		{"intact", "empty", "zero", recovered{1, 3, 5, 0, 3, 3, false, true}},
		{"intact", "empty", "inside", recovered{1, 3, 5, 0, 3, 3, false, true}},
		{"intact", "empty", "curbase", recovered{1, 3, 5, 0, 3, 3, false, true}},
		{"intact", "empty", "past", recovered{1, 3, 5, 0, 10, 3, false, true}},
		{"intact", "badhdr", "zero", recovered{1, 3, 5, 0, 3, 3, true, true}},
		{"intact", "badhdr", "inside", recovered{1, 3, 5, 0, 3, 3, true, true}},
		{"intact", "badhdr", "curbase", recovered{1, 3, 5, 0, 3, 3, true, true}},
		{"intact", "badhdr", "past", recovered{1, 3, 5, 0, 10, 3, true, true}},
		{"intact", "intact", "zero", recovered{1, 6, 8, 0, 6, 6, false, true}},
		{"intact", "intact", "inside", recovered{1, 6, 8, 0, 6, 6, false, true}},
		{"intact", "intact", "curbase", recovered{4, 6, 8, 0, 6, 3, false, true}},
		{"intact", "intact", "past", recovered{4, 6, 8, 3, 10, 3, false, true}},
		{"intact", "torn", "zero", recovered{1, 5, 8, 0, 5, 5, true, true}},
		{"intact", "torn", "inside", recovered{1, 5, 8, 0, 5, 5, true, true}},
		{"intact", "torn", "curbase", recovered{4, 5, 8, 0, 5, 2, true, true}},
		{"intact", "torn", "past", recovered{4, 5, 8, 3, 10, 2, true, true}},
		{"intact", "gap", "zero", recovered{1, 3, 8, 0, 3, 3, true, true}},
		{"intact", "gap", "inside", recovered{1, 3, 8, 0, 3, 3, true, true}},
		{"intact", "gap", "curbase", recovered{6, 8, 8, 0, 8, 3, false, true}},
		{"intact", "gap", "past", recovered{6, 8, 8, 5, 10, 3, false, true}},
		// .prev torn
		{"torn", "empty", "zero", recovered{1, 2, 5, 0, 2, 2, true, true}},
		{"torn", "empty", "inside", recovered{1, 2, 5, 0, 2, 2, true, true}},
		{"torn", "empty", "curbase", recovered{1, 2, 5, 0, 3, 2, true, true}},
		{"torn", "empty", "past", recovered{1, 2, 5, 0, 10, 2, true, true}},
		{"torn", "badhdr", "zero", recovered{1, 2, 5, 0, 2, 2, true, true}},
		{"torn", "badhdr", "inside", recovered{1, 2, 5, 0, 2, 2, true, true}},
		{"torn", "badhdr", "curbase", recovered{1, 2, 5, 0, 3, 2, true, true}},
		{"torn", "badhdr", "past", recovered{1, 2, 5, 0, 10, 2, true, true}},
		{"torn", "intact", "zero", recovered{1, 2, 8, 0, 2, 2, true, true}},
		{"torn", "intact", "inside", recovered{1, 2, 8, 0, 2, 2, true, true}},
		{"torn", "intact", "curbase", recovered{4, 6, 8, 0, 6, 3, false, true}},
		{"torn", "intact", "past", recovered{4, 6, 8, 3, 10, 3, false, true}},
		{"torn", "torn", "zero", recovered{1, 2, 8, 0, 2, 2, true, true}},
		{"torn", "torn", "inside", recovered{1, 2, 8, 0, 2, 2, true, true}},
		{"torn", "torn", "curbase", recovered{4, 5, 8, 0, 5, 2, true, true}},
		{"torn", "torn", "past", recovered{4, 5, 8, 3, 10, 2, true, true}},
		{"torn", "gap", "zero", recovered{1, 2, 8, 0, 2, 2, true, true}},
		{"torn", "gap", "inside", recovered{1, 2, 8, 0, 2, 2, true, true}},
		{"torn", "gap", "curbase", recovered{6, 8, 8, 0, 8, 3, false, true}},
		{"torn", "gap", "past", recovered{6, 8, 8, 5, 10, 3, false, true}},
		// .prev badhdr
		{"badhdr", "empty", "zero", recovered{0, 0, drawn, 0, 0, 0, true, false}},
		{"badhdr", "empty", "inside", recovered{0, 0, drawn, 2, 2, 0, true, false}},
		{"badhdr", "empty", "curbase", recovered{0, 0, drawn, 3, 3, 0, true, false}},
		{"badhdr", "empty", "past", recovered{0, 0, drawn, 10, 10, 0, true, false}},
		{"badhdr", "badhdr", "zero", recovered{0, 0, drawn, 0, 0, 0, true, false}},
		{"badhdr", "badhdr", "inside", recovered{0, 0, drawn, 2, 2, 0, true, false}},
		{"badhdr", "badhdr", "curbase", recovered{0, 0, drawn, 3, 3, 0, true, false}},
		{"badhdr", "badhdr", "past", recovered{0, 0, drawn, 10, 10, 0, true, false}},
		{"badhdr", "intact", "zero", recovered{0, 0, 8, 0, 0, 0, true, false}},
		{"badhdr", "intact", "inside", recovered{0, 0, 8, 2, 2, 0, true, false}},
		{"badhdr", "intact", "curbase", recovered{4, 6, 8, 3, 6, 3, false, false}},
		{"badhdr", "intact", "past", recovered{4, 6, 8, 3, 10, 3, false, true}},
		{"badhdr", "torn", "zero", recovered{0, 0, 8, 0, 0, 0, true, false}},
		{"badhdr", "torn", "inside", recovered{0, 0, 8, 2, 2, 0, true, false}},
		{"badhdr", "torn", "curbase", recovered{4, 5, 8, 3, 5, 2, true, false}},
		{"badhdr", "torn", "past", recovered{4, 5, 8, 3, 10, 2, true, true}},
		{"badhdr", "gap", "zero", recovered{0, 0, 8, 0, 0, 0, true, false}},
		{"badhdr", "gap", "inside", recovered{0, 0, 8, 2, 2, 0, true, false}},
		{"badhdr", "gap", "curbase", recovered{6, 8, 8, 5, 8, 3, false, false}},
		{"badhdr", "gap", "past", recovered{6, 8, 8, 5, 10, 3, false, true}},
	}
	for _, r := range rows {
		t.Run(r.prev+"/"+r.cur+"/"+r.skip, func(t *testing.T) {
			skip := matrixSkip(r.skip, r.cur)
			path := filepath.Join(t.TempDir(), "wal.log")
			if seg := matrixPrev[r.prev]; seg != nil {
				if err := os.WriteFile(path+".prev", seg, 0o600); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(path, matrixCur[r.cur], 0o600); err != nil {
				t.Fatal(err)
			}
			w, replayed, seqs := openSeqT(t, path, Options{SkipBelow: skip})
			got := recovered{
				epoch: w.Epoch(), chainBase: w.ChainBase(), seq: w.Seq(),
				records: w.ReplayInfo().Records, truncated: w.ReplayInfo().Truncated,
			}
			if got.epoch > drawn {
				got.epoch = drawn
			}
			for i, seq := range seqs {
				if got.from == 0 {
					got.from = seq
				} else if seq != got.to+1 {
					t.Fatalf("replayed seqs %v not contiguous", seqs)
				}
				got.to = seq
				if want := fmt.Sprintf("rec-%d", seq); string(replayed[i]) != want {
					t.Fatalf("seq %d replayed %q, want %q", seq, replayed[i], want)
				}
			}
			_, err := os.Stat(path + ".prev")
			got.prev = err == nil
			if got != r.want {
				t.Fatalf("recovered %+v, want %+v", got, r.want)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("live segment missing after Open: %v", err)
			}

			// A record acknowledged after recovery must come back at the
			// next boot, numbered above what the caller's image covers.
			next := w.Seq() + 1
			appendT(t, w, fmt.Sprintf("rec-%d", next))
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, replayed, seqs := openSeqT(t, path, Options{SkipBelow: skip})
			defer w2.Close()
			if next <= skip || len(seqs) == 0 || seqs[len(seqs)-1] != next || string(replayed[len(seqs)-1]) != fmt.Sprintf("rec-%d", next) {
				t.Fatalf("record synced after Open as seq %d (SkipBelow %d): next Open replayed seqs %v", next, skip, seqs)
			}
		})
	}
}
