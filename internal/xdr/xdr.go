// Package xdr implements the External Data Representation standard
// (RFC 1832) used by every wire protocol in this repository.
//
// SFS defines all of its cryptographic and file-system messages as XDR
// data structures and computes hashes and public-key functions over the
// raw marshaled bytes (paper §3.2). This package therefore provides a
// deterministic encoder and decoder for Go values, driven by a plan
// compiled from each type once (plan.go):
//
//	bool              -> XDR bool (4 bytes)
//	int32/uint32      -> 4-byte big endian
//	int64/uint64      -> 8-byte big endian ("hyper")
//	string            -> variable-length opaque with length prefix
//	[]byte            -> variable-length opaque
//	[N]byte           -> fixed-length opaque
//	[]T               -> variable-length array
//	[N]T              -> fixed-length array
//	*T                -> XDR optional-data (bool followed by T if set)
//	struct            -> fields in declaration order
//
// Types may instead implement Marshaler/Unmarshaler for union types and
// other representations XDR cannot express structurally.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
)

// MaxElements bounds the length accepted for any variable-length item
// while decoding, protecting servers from memory-exhaustion attacks by
// malformed length prefixes.
const MaxElements = 16 << 20

var (
	// ErrTrailingBytes is reported by Unmarshal when input remains
	// after the top-level value has been decoded.
	ErrTrailingBytes = errors.New("xdr: trailing bytes after value")
	// ErrTooLong is reported when a decoded length prefix exceeds
	// MaxElements or an encoded item exceeds a declared bound.
	ErrTooLong = errors.New("xdr: length exceeds maximum")
)

// Marshaler is implemented by types that encode themselves.
type Marshaler interface {
	MarshalXDR(e *Encoder) error
}

// Unmarshaler is implemented by types that decode themselves.
type Unmarshaler interface {
	UnmarshalXDR(d *Decoder) error
}

// Marshal returns the XDR encoding of v.
func Marshal(v interface{}) ([]byte, error) {
	e := &Encoder{}
	if err := e.Encode(v); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// MustMarshal is Marshal for values the caller knows to be encodable,
// such as fixed protocol structures. It panics on error.
func MustMarshal(v interface{}) []byte {
	b, err := Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("xdr: MustMarshal: %v", err))
	}
	return b
}

// Unmarshal decodes data into v, which must be a non-nil pointer.
// The entire input must be consumed.
func Unmarshal(data []byte, v interface{}) error {
	d := NewDecoder(data)
	if err := d.Decode(v); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return ErrTrailingBytes
	}
	return nil
}

// BorrowThreshold is the opaque size at and above which a gathering
// Encoder borrows the caller's slice instead of copying it, and at
// which the wire-copy accounting classifies bytes as payload. Below
// it, the bookkeeping costs more than the memcpy it would save.
const BorrowThreshold = 1024

// borrowMark splices one borrowed slice into the owned buffer: the
// bytes of b belong between buf[:off] and buf[off:]. Offsets rather
// than owned sub-slices survive buf reallocation.
type borrowMark struct {
	off int
	b   []byte
}

// An Encoder appends XDR-encoded values to an internal buffer.
// The zero value is ready for use.
//
// In gather mode (SetGather), large opaques are spliced in by
// reference instead of copied: Segments returns the encoding as an
// ordered segment list mixing owned ranges and borrowed slices.
// Ownership rule: a borrowed slice must stay immutable until the
// segments have been consumed (flushed to the transport, or the
// encoder Reset/returned to the pool). Mutating a borrow in that
// window corrupts the record — on a secure channel the receiver's
// MAC check fails and the channel dies.
type Encoder struct {
	buf    []byte
	gather bool
	marks  []borrowMark
	segs   [][]byte // scratch for Segments

	// Wire-copy accounting, reset with the encoder: bytes of
	// payload-class opaques (>= BorrowThreshold) encountered, how many
	// of them were copied into buf, and how many were borrowed.
	payload  uint64
	copied   uint64
	borrowed uint64
}

// SetGather toggles gather mode for subsequent Put calls. Turning it
// on mid-encode is fine; turning it off with borrows pending does not
// flatten them.
func (e *Encoder) SetGather(on bool) { e.gather = on }

// Bytes returns the encoded bytes accumulated so far. The returned
// slice aliases the encoder's buffer. It must not be used while
// borrowed segments are pending — the owned buffer alone is not the
// encoding — so it panics then; use Segments instead.
func (e *Encoder) Bytes() []byte {
	if len(e.marks) > 0 {
		panic("xdr: Bytes on an encoder with borrowed segments; use Segments")
	}
	return e.buf
}

// Segments returns the encoding as an ordered segment list: owned
// ranges of the internal buffer interleaved with borrowed slices.
// The returned slice and its owned segments alias the encoder and are
// invalidated by the next Put/Encode/Reset; borrowed segments alias
// their callers' memory (see the ownership rule on Encoder).
func (e *Encoder) Segments() [][]byte {
	e.segs = e.segs[:0]
	prev := 0
	for _, m := range e.marks {
		if m.off > prev {
			e.segs = append(e.segs, e.buf[prev:m.off])
		}
		e.segs = append(e.segs, m.b)
		prev = m.off
	}
	if len(e.buf) > prev || len(e.segs) == 0 {
		e.segs = append(e.segs, e.buf[prev:])
	}
	return e.segs
}

// PayloadBytes returns how many payload-class opaque bytes
// (>= BorrowThreshold) were encoded since the last Reset.
func (e *Encoder) PayloadBytes() uint64 { return e.payload }

// CopiedBytes returns how many payload-class bytes were copied into
// the owned buffer (zero when every large opaque was borrowed).
func (e *Encoder) CopiedBytes() uint64 { return e.copied }

// BorrowedBytes returns how many payload-class bytes were borrowed.
func (e *Encoder) BorrowedBytes() uint64 { return e.borrowed }

// Reset empties the encoder, retaining its buffer for reuse and
// dropping any borrowed-slice references. Bytes previously returned
// by Bytes or Segments are invalidated. Gather mode is retained.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	for i := range e.marks {
		e.marks[i].b = nil
	}
	e.marks = e.marks[:0]
	for i := range e.segs {
		e.segs[i] = nil
	}
	e.segs = e.segs[:0]
	e.payload, e.copied, e.borrowed = 0, 0, 0
}

// encoderPool recycles Encoders for the hot wire path: one RPC needs
// one encoder for the call or reply, and the marshaled bytes are
// always copied into a framed record before the encoder is released.
var encoderPool = sync.Pool{New: func() interface{} { return &Encoder{} }}

// maxPooledBuf bounds the scratch retained by a pooled encoder so one
// huge record (e.g. a 64 MB READ) cannot pin memory forever.
const maxPooledBuf = 1 << 20

// GetEncoder returns an empty Encoder from the package pool, with
// gather mode off.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.gather = false
	e.Reset()
	return e
}

// poisonOnPut enables the use-after-put debug mode: PutEncoder
// overwrites the encoder's entire buffer capacity with PoisonByte, so
// any slice obtained from Bytes/Segments and illegally retained past
// PutEncoder reads as garbage instead of silently aliasing the next
// record. Enabled by the XDR_POISON environment variable; costs a
// memset per put, so it is off by default.
var poisonOnPut atomic.Bool

// PoisonByte is the fill value of the poison-on-put debug mode.
const PoisonByte = 0xDB

func init() {
	if os.Getenv("XDR_POISON") != "" {
		poisonOnPut.Store(true)
	}
}

// PutEncoder returns e to the pool. The caller must not touch e or
// any slice returned by e.Bytes() or e.Segments() afterwards: the
// buffer is recycled by the next GetEncoder (and poisoned first when
// the debug mode is on). Borrowed-slice references are dropped here
// so a pooled encoder never pins caller memory.
func PutEncoder(e *Encoder) {
	e.Reset() // drops borrow and segment references
	if poisonOnPut.Load() {
		b := e.buf[:cap(e.buf)]
		for i := range b {
			b[i] = PoisonByte
		}
	}
	if cap(e.buf) > maxPooledBuf {
		return
	}
	encoderPool.Put(e)
}

// Len returns the number of bytes encoded so far, borrowed segments
// included.
func (e *Encoder) Len() int { return len(e.buf) + int(e.borrowed) }

// PutUint32 appends a 4-byte big-endian value.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutUint64 appends an 8-byte big-endian value.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutBool appends an XDR boolean.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFixedOpaque appends b with zero padding to a 4-byte boundary and
// no length prefix. In gather mode, payload-class slices
// (>= BorrowThreshold) are borrowed by reference — see the ownership
// rule on Encoder — with only the padding owned; otherwise the bytes
// are copied into the buffer and tallied as a wire copy.
func (e *Encoder) PutFixedOpaque(b []byte) {
	if len(b) >= BorrowThreshold {
		e.payload += uint64(len(b))
		if e.gather {
			e.borrowed += uint64(len(b))
			e.marks = append(e.marks, borrowMark{off: len(e.buf), b: b})
			for i := len(b); i%4 != 0; i++ {
				e.buf = append(e.buf, 0)
			}
			return
		}
		e.copied += uint64(len(b))
	}
	e.buf = append(e.buf, b...)
	for i := len(b); i%4 != 0; i++ {
		e.buf = append(e.buf, 0)
	}
}

// PutOpaque appends a variable-length opaque: length prefix, bytes,
// padding.
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutString appends an XDR string.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	for i := len(s); i%4 != 0; i++ {
		e.buf = append(e.buf, 0)
	}
}

// Encode appends the XDR encoding of v.
func (e *Encoder) Encode(v interface{}) error {
	if m, ok := v.(Marshaler); ok {
		return m.MarshalXDR(e)
	}
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return errors.New("xdr: cannot encode invalid value")
	}
	return planFor(rv.Type()).encode(e, rv)
}

// A Decoder reads XDR values from a byte slice.
type Decoder struct {
	buf []byte
	off int

	// borrow lets decoded []byte fields alias the input buffer for
	// payload-class opaques (>= BorrowThreshold) instead of copying.
	// Only safe when the input buffer outlives every decoded value —
	// client-side reply records are freshly allocated per record, so
	// always safe there; server handlers opt in only when they consume
	// the bytes synchronously.
	borrow bool

	// Wire-copy accounting for payload-class opaques, mirroring the
	// Encoder's: bytes copied out versus borrowed.
	copied   uint64
	borrowed uint64

	// ctx is the opaque per-record context (see SetCtx).
	ctx interface{}
}

// NewDecoder returns a Decoder reading from data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// SetCtx attaches an opaque per-record context to the decoder — the
// RPC layer's stage clock rides here through handler signatures that
// only see the Decoder. Storing a pointer in the interface does not
// allocate.
func (d *Decoder) SetCtx(v interface{}) { d.ctx = v }

// Ctx returns the context set by SetCtx, nil if none.
func (d *Decoder) Ctx() interface{} { return d.ctx }

// SetBorrow toggles borrow mode for subsequently decoded []byte
// fields (see the field comment for the safety rule).
func (d *Decoder) SetBorrow(on bool) { d.borrow = on }

// CopiedBytes returns how many payload-class opaque bytes were copied
// out of the input buffer while decoding.
func (d *Decoder) CopiedBytes() uint64 { return d.copied }

// BorrowedBytes returns how many payload-class opaque bytes were
// handed out as aliases of the input buffer.
func (d *Decoder) BorrowedBytes() uint64 { return d.borrowed }

// Remaining reports how many undecoded bytes remain.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uint32 decodes a 4-byte big-endian value.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Uint64 decodes an 8-byte big-endian value.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Bool decodes an XDR boolean; any nonzero discriminant is an error.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("xdr: invalid bool discriminant %d", v)
}

// FixedOpaque decodes n bytes plus padding. The result aliases the
// decoder's buffer.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || n > MaxElements {
		return nil, ErrTooLong
	}
	padded := (n + 3) &^ 3
	if d.Remaining() < padded {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off : d.off+n]
	for _, p := range d.buf[d.off+n : d.off+padded] {
		if p != 0 {
			return nil, errors.New("xdr: nonzero padding")
		}
	}
	d.off += padded
	return b, nil
}

// Opaque decodes a variable-length opaque.
func (d *Decoder) Opaque() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	return d.FixedOpaque(int(n))
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Decode reads the next value into v, a non-nil pointer.
func (d *Decoder) Decode(v interface{}) error {
	if u, ok := v.(Unmarshaler); ok {
		return u.UnmarshalXDR(d)
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return errors.New("xdr: Decode target must be a non-nil pointer")
	}
	return planFor(rv.Type().Elem()).decode(d, rv.Elem())
}
