package secchan

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// testdata/seal_vectors.json was written at commit 1c6e47e, when
// Conn.Write was a second sealer beside WriteSegments and the mode came
// from a package variable. It pins the bytes each entry point hands the
// transport, so it must never be regenerated from this code.

type sealStep struct {
	Segments bool   `json:"segments"` // WriteSegments cut at Cuts, or Write
	Size     int    `json:"size"`
	Cuts     []int  `json:"cuts"`
	Len      int    `json:"sealed_len"`
	SHA256   string `json:"sealed_sha256"`
	Hex      string `json:"sealed_hex"` // records of at most 64 bytes
}

type sealVectorFile struct {
	KeyCS string `json:"key_cs"`
	KeySC string `json:"key_sc"`
	Sets  []struct {
		Encrypt bool       `json:"encrypt"`
		Steps   []sealStep `json:"steps"`
	} `json:"sets"`
}

func sealPayload(step, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i*131+step*17) ^ byte(i>>8)
	}
	return p
}

// TestSealedBytesUnchanged seals the committed script — Write and
// WriteSegments records of 0 B to 300 KiB on one channel, encryption on
// and off, over a vectored and a plain transport — compares every
// record with the parent's bytes, and opens the lot on the peer.
func TestSealedBytesUnchanged(t *testing.T) {
	raw, err := os.ReadFile("testdata/seal_vectors.json")
	if err != nil {
		t.Fatal(err)
	}
	var file sealVectorFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	keyCS, _ := hex.DecodeString(file.KeyCS)
	keySC, _ := hex.DecodeString(file.KeySC)
	if len(file.Sets) != 2 {
		t.Fatalf("%d vector sets, want encrypted and plaintext", len(file.Sets))
	}
	for _, set := range file.Sets {
		for _, vectored := range []bool{true, false} {
			wire := &segRWC{Buffer: &bytes.Buffer{}}
			var transport io.ReadWriteCloser = wire
			if !vectored {
				transport = benchRWC{wire.Buffer} // a plain io.Writer: the staged route
			}
			cw, err := newConn(transport, keyCS, keySC, true)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := newConn(wire, keyCS, keySC, false)
			if err != nil {
				t.Fatal(err)
			}
			if !set.Encrypt {
				cw.DisableEncryption()
				sr.DisableEncryption()
			}
			var want []byte
			for i, st := range set.Steps {
				p := sealPayload(i, st.Size)
				want = append(want, p...)
				before := wire.Len()
				if st.Segments {
					var segs [][]byte
					if st.Size > 0 || len(st.Cuts) > 0 {
						segs = split(p, st.Cuts...)
					}
					_, _, err = cw.WriteSegments(segs)
				} else {
					_, err = cw.Write(p)
				}
				if err != nil {
					t.Fatal(err)
				}
				sealed := wire.Bytes()[before:]
				sum := sha256.Sum256(sealed)
				if len(sealed) != st.Len || hex.EncodeToString(sum[:]) != st.SHA256 ||
					st.Hex != "" && hex.EncodeToString(sealed) != st.Hex {
					t.Fatalf("encrypt=%v vectored=%v step %d (segments=%v, %d B): sealed bytes differ from the parent's",
						set.Encrypt, vectored, i, st.Segments, st.Size)
				}
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(sr, got); err != nil {
				t.Fatalf("encrypt=%v vectored=%v: peer: %v", set.Encrypt, vectored, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encrypt=%v vectored=%v: peer opened different plaintext", set.Encrypt, vectored)
			}
		}
	}
}
