package xdr

import (
	"bytes"
	"testing"
	"testing/quick"
)

// flatten joins an encoder's segments into one contiguous byte slice,
// the reference form a gathered encoding is compared against.
func flatten(e *Encoder) []byte {
	var out []byte
	for _, s := range e.Segments() {
		out = append(out, s...)
	}
	return out
}

// A gathered encoding must be byte-identical to the flat encoding of
// the same Put sequence, across segment boundaries, odd padding, and
// zero-length opaques.
func TestGatherFlatEquivalence(t *testing.T) {
	big := make([]byte, BorrowThreshold+5) // odd length: forces padding after a borrow
	for i := range big {
		big[i] = byte(i * 7)
	}
	big2 := make([]byte, 4*BorrowThreshold)
	for i := range big2 {
		big2[i] = byte(i * 13)
	}
	puts := []func(e *Encoder){
		func(e *Encoder) { e.PutUint32(0xdeadbeef) },
		func(e *Encoder) { e.PutOpaque(nil) },            // zero-length opaque
		func(e *Encoder) { e.PutOpaque(big) },            // borrowed, odd padding
		func(e *Encoder) { e.PutOpaque([]byte("tiny")) }, // below threshold, owned
		func(e *Encoder) { e.PutFixedOpaque(big2) },      // borrowed, aligned
		func(e *Encoder) { e.PutString("hello") },
		func(e *Encoder) { e.PutOpaque(big2) }, // adjacent borrows
		func(e *Encoder) { e.PutFixedOpaque(big) },
		func(e *Encoder) { e.PutUint64(42) },
	}

	var flat, gather Encoder
	gather.SetGather(true)
	for _, put := range puts {
		put(&flat)
		put(&gather)
	}
	want := flat.Bytes()
	got := flatten(&gather)
	if !bytes.Equal(want, got) {
		t.Fatalf("gathered encoding differs: flat %d bytes, gathered %d bytes", len(want), len(got))
	}
	if gather.Len() != flat.Len() {
		t.Fatalf("Len mismatch: gather %d, flat %d", gather.Len(), flat.Len())
	}
	if gather.BorrowedBytes() == 0 || gather.CopiedBytes() != 0 {
		t.Fatalf("gather accounting: borrowed=%d copied=%d, want borrowed>0 copied=0",
			gather.BorrowedBytes(), gather.CopiedBytes())
	}
	wantPayload := uint64(2*len(big) + 2*len(big2))
	if flat.PayloadBytes() != wantPayload || flat.CopiedBytes() != wantPayload {
		t.Fatalf("flat accounting: payload=%d copied=%d, want both %d",
			flat.PayloadBytes(), flat.CopiedBytes(), wantPayload)
	}
}

// Reflection-encoded structs carrying payload-class []byte fields
// borrow in gather mode and still produce identical bytes.
func TestGatherReflectionEquivalence(t *testing.T) {
	type readRes struct {
		Status uint32
		Count  uint32
		EOF    bool
		Data   []byte
	}
	v := readRes{Status: 0, Count: 8192, EOF: false, Data: bytes.Repeat([]byte{0xa5}, 8192)}

	var flat, gather Encoder
	gather.SetGather(true)
	if err := flat.Encode(&v); err != nil {
		t.Fatal(err)
	}
	if err := gather.Encode(&v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat.Bytes(), flatten(&gather)) {
		t.Fatal("reflection gathered encoding differs from flat")
	}
	if gather.BorrowedBytes() != 8192 {
		t.Fatalf("borrowed = %d, want 8192", gather.BorrowedBytes())
	}
	// The borrow really is a borrow: the segment list must alias v.Data.
	found := false
	for _, s := range gather.Segments() {
		if len(s) == len(v.Data) && &s[0] == &v.Data[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("no segment aliases the caller's Data slice; payload was copied")
	}
}

// Bytes() must refuse to serve a partial encoding while borrows are
// pending — the owned buffer alone is not the record.
func TestBytesPanicsWithBorrows(t *testing.T) {
	var e Encoder
	e.SetGather(true)
	e.PutOpaque(make([]byte, BorrowThreshold))
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes() with pending borrows did not panic")
		}
	}()
	_ = e.Bytes()
}

// Reset and PutEncoder must drop borrowed-slice references so pooled
// encoders never pin caller memory, and GetEncoder must hand back an
// encoder with gather off.
func TestResetDropsBorrows(t *testing.T) {
	e := GetEncoder()
	e.SetGather(true)
	e.PutOpaque(make([]byte, BorrowThreshold))
	e.Reset()
	if len(e.marks) != 0 || e.borrowed != 0 || e.Len() != 0 {
		t.Fatalf("Reset left marks=%d borrowed=%d len=%d", len(e.marks), e.borrowed, e.Len())
	}
	if !e.gather {
		t.Fatal("Reset must retain gather mode")
	}
	PutEncoder(e)
	if g := GetEncoder(); g.gather {
		t.Fatal("GetEncoder returned an encoder with gather on")
	}
}

// Regression for the Bytes() aliasing hazard: a slice retained past
// PutEncoder must read as poison under the debug mode, proving the
// use-after-put is detectable instead of silently corrupting the next
// record that recycles the buffer.
func TestPoisonOnPutCatchesUseAfterPut(t *testing.T) {
	defer poisonOnPut.Store(poisonOnPut.Swap(true))

	e := GetEncoder()
	e.PutUint32(0x01020304)
	leaked := e.Bytes()
	PutEncoder(e)

	for i, b := range leaked {
		if b != PoisonByte {
			t.Fatalf("leaked[%d] = %#x after PutEncoder, want poison %#x — use-after-put undetected", i, b, PoisonByte)
		}
	}
}

// Decoder borrow mode: payload-class []byte fields alias the input
// buffer; small fields are still copied; borrow off copies everything.
func TestDecoderBorrow(t *testing.T) {
	type msg struct {
		Small []byte
		Big   []byte
	}
	in := msg{Small: []byte("abc"), Big: bytes.Repeat([]byte{7}, BorrowThreshold)}
	enc := MustMarshal(in)

	d := NewDecoder(enc)
	d.SetBorrow(true)
	var out msg
	if err := d.Decode(&out); err != nil {
		t.Fatal(err)
	}
	if d.BorrowedBytes() != uint64(len(in.Big)) || d.CopiedBytes() != 0 {
		t.Fatalf("borrow accounting: borrowed=%d copied=%d", d.BorrowedBytes(), d.CopiedBytes())
	}
	// Big aliases enc; Small must not (below threshold).
	enc[len(enc)-1] ^= 0xff // last byte of Big's padding-free payload region
	if out.Big[len(out.Big)-1] == in.Big[len(in.Big)-1] {
		t.Fatal("Big does not alias the input buffer in borrow mode")
	}
	out.Small[0] = 'z'
	if enc[4] == 'z' { // first opaque's first payload byte
		t.Fatal("Small aliases the input buffer; sub-threshold fields must copy")
	}

	d2 := NewDecoder(MustMarshal(in))
	var out2 msg
	if err := d2.Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if d2.CopiedBytes() != uint64(len(in.Big)) || d2.BorrowedBytes() != 0 {
		t.Fatalf("no-borrow accounting: borrowed=%d copied=%d", d2.BorrowedBytes(), d2.CopiedBytes())
	}
}

// Property check: for random segment mixes straddling the borrow
// threshold, gather and flat encoders agree byte-for-byte and the
// result round-trips through the decoder.
func TestQuickGatherFlatEquivalence(t *testing.T) {
	f := func(chunks [][]byte, grow []byte) bool {
		// Stretch some chunks past the threshold so borrows happen.
		for i := range chunks {
			if i%2 == 0 && len(chunks[i]) > 0 {
				for len(chunks[i]) < BorrowThreshold+len(chunks[i])%7 {
					chunks[i] = append(chunks[i], chunks[i]...)
				}
			}
		}
		var flat, gather Encoder
		gather.SetGather(true)
		for i, c := range chunks {
			if i%3 == 0 {
				flat.PutFixedOpaque(c)
				gather.PutFixedOpaque(c)
			} else {
				flat.PutOpaque(c)
				gather.PutOpaque(c)
			}
			flat.PutUint32(uint32(i))
			gather.PutUint32(uint32(i))
		}
		flat.PutOpaque(grow)
		gather.PutOpaque(grow)
		return bytes.Equal(flat.Bytes(), flatten(&gather))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
