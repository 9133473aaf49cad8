package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// readImageRef is the reference parser: the image a buffer holds,
// parsed from memory the way boot did when it read images whole.
func readImageRef(data []byte) (*image, error) {
	bad := errors.New("invalid image")
	le := binary.LittleEndian
	if len(data) < ckptHeaderSize || string(data[:9]) != ckptMagic {
		return nil, bad
	}
	if crc32.ChecksumIEEE(data[:25]) != le.Uint32(data[25:]) {
		return nil, bad
	}
	img := &image{walSeq: le.Uint64(data[17:]), bytes: uint64(len(data))}
	off := ckptHeaderSize
	sawTrailer := false
	var trNodes, trExtents uint64
	for off < len(data) {
		if sawTrailer || off+imgFrameSize > len(data) {
			return nil, bad
		}
		n := int(le.Uint32(data[off:]))
		crc := le.Uint32(data[off+4:])
		if n <= 0 || n > maxImgRecord || off+imgFrameSize+n > len(data) {
			return nil, bad
		}
		p := data[off+imgFrameSize : off+imgFrameSize+n]
		if crc32.ChecksumIEEE(p) != crc {
			return nil, bad
		}
		off += imgFrameSize + n
		switch p[0] {
		case imgKindExtent:
			if len(p) < 21 {
				return nil, bad
			}
			e := imgExtent{id: le.Uint64(p[1:]), size: le.Uint64(p[9:])}
			count := int(le.Uint32(p[17:]))
			if count != (len(p)-21)/16 || len(p) != 21+count*16 {
				return nil, bad
			}
			e.bnos = make([]uint64, count)
			e.slots = make([]uint64, count)
			for i := 0; i < count; i++ {
				e.bnos[i] = le.Uint64(p[21+i*16:])
				e.slots[i] = le.Uint64(p[29+i*16:])
			}
			img.extents = append(img.extents, e)
		case imgKindTrailer:
			if len(p) != 41 {
				return nil, bad
			}
			trNodes = le.Uint64(p[1:])
			trExtents = le.Uint64(p[9:])
			img.nextID = le.Uint64(p[17:])
			img.nextCookie = le.Uint64(p[25:])
			img.nextSlot = le.Uint64(p[33:])
			sawTrailer = true
		default:
			rec, _, err := storage.DecodeRecord(p)
			if err != nil || rec.Node == nil {
				return nil, bad
			}
			img.nodes = append(img.nodes, *rec.Node)
		}
	}
	if !sawTrailer || trNodes != uint64(len(img.nodes)) || trExtents != uint64(len(img.extents)) {
		return nil, bad
	}
	return img, nil
}

// FuzzLoadImage feeds the image loader files no checkpoint wrote: torn
// or bit-flipped images, trailers whose counts disagree with the
// records before them, bytes after the trailer, lengths past the file
// or past maxImgRecord. The loader must never panic, must reject
// exactly the inputs the reference parser rejects, and must decode the
// rest to the same image.
func FuzzLoadImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readImage(bytes.NewReader(data), int64(len(data)))
		want, werr := readImageRef(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("readImage error %v; reference error %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("readImage = %+v; reference %+v", got, want)
		}
	})
}
