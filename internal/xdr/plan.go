package xdr

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
)

// A plan is what reflection has to say about one Go type, asked once:
// which XDR form it takes, whether it or its pointer encodes itself,
// which struct fields are exported and what to call them in an error.
// Encode and Decode walk a plan beside the value, so per message they
// only read and write fields — no StructField copies, no interface
// boxing to probe for Marshaler, no temporary for a fixed byte array.
type plan struct {
	op  op
	typ reflect.Type

	marshalVal   bool // typ implements Marshaler
	marshalPtr   bool // only *typ does; usable when the value is addressable
	unmarshalPtr bool // *typ implements Unmarshaler

	elem   *plan   // opSlice, opArray, opPtr
	n      int     // opArray, opByteArray: element count
	fields []field // opStruct: exported fields in declaration order

	// minWire is the fewest bytes any encoding of typ occupies. A
	// decoded element count is checked against the bytes that remain
	// before the slice is made, so a forged count cannot allocate more
	// than the record that carried it could fill. (An element whose
	// size cannot be known — a self-decoding type — or is zero counts
	// as one byte: a counted array of nothing carries no information.)
	minWire int
}

type field struct {
	index int
	plan  *plan
	label string // "Type.Field", for error wrapping
}

type op uint8

const (
	opUnsupported op = iota
	opBool
	opInt32  // int8, int16, int32: four bytes, sign-extended
	opUint32 // uint8, uint16, uint32
	opInt64  // int, int64
	opUint64 // uint, uint64
	opFloat64
	opString
	opBytes     // slice of a uint8 kind: variable-length opaque
	opByteArray // array of a uint8 kind: fixed-length opaque
	opSlice
	opArray
	opPtr
	opStruct
	opInterface // encodes only through the dynamic value's Marshaler
)

var (
	marshalerType   = reflect.TypeOf((*Marshaler)(nil)).Elem()
	unmarshalerType = reflect.TypeOf((*Unmarshaler)(nil)).Elem()
)

// plans caches finished plans by reflect.Type. Every dispatch worker
// and every caller goroutine reads it concurrently; writes happen once
// per type per process.
var plans sync.Map

func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	// Build privately, publish when whole: a reader can never reach a
	// half-filled plan, and a recursive type finds itself in the
	// private map. Two goroutines racing on one type build equivalent
	// plans; either is fine to keep.
	building := make(map[reflect.Type]*plan)
	p := build(t, building)
	for bt, bp := range building {
		plans.LoadOrStore(bt, bp)
	}
	return p
}

func build(t reflect.Type, building map[reflect.Type]*plan) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p, ok := building[t]; ok {
		return p
	}
	p := &plan{typ: t}
	building[t] = p
	p.marshalVal = t.Implements(marshalerType)
	pt := reflect.PointerTo(t)
	p.marshalPtr = !p.marshalVal && pt.Implements(marshalerType)
	p.unmarshalPtr = pt.Implements(unmarshalerType)
	switch t.Kind() {
	case reflect.Bool:
		p.op, p.minWire = opBool, 4
	case reflect.Int8, reflect.Int16, reflect.Int32:
		p.op, p.minWire = opInt32, 4
	case reflect.Uint8, reflect.Uint16, reflect.Uint32:
		p.op, p.minWire = opUint32, 4
	case reflect.Int, reflect.Int64:
		p.op, p.minWire = opInt64, 8
	case reflect.Uint, reflect.Uint64:
		p.op, p.minWire = opUint64, 8
	case reflect.Float64:
		p.op, p.minWire = opFloat64, 8
	case reflect.String:
		p.op, p.minWire = opString, 4
	case reflect.Slice:
		p.minWire = 4
		if t.Elem().Kind() == reflect.Uint8 {
			p.op = opBytes
			break
		}
		p.op, p.elem = opSlice, build(t.Elem(), building)
	case reflect.Array:
		p.n = t.Len()
		if t.Elem().Kind() == reflect.Uint8 {
			p.op, p.minWire = opByteArray, (p.n+3)&^3
			break
		}
		p.op, p.elem = opArray, build(t.Elem(), building)
		p.minWire = p.n * p.elem.minWire
	case reflect.Ptr:
		p.op, p.minWire = opPtr, 4
		p.elem = build(t.Elem(), building)
	case reflect.Struct:
		p.op = opStruct
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" {
				continue // unexported
			}
			fp := build(f.Type, building)
			p.fields = append(p.fields, field{index: i, plan: fp, label: t.Name() + "." + f.Name})
			p.minWire += fp.minWire
		}
	case reflect.Interface:
		p.op = opInterface
	}
	if p.unmarshalPtr {
		p.minWire = 0 // the type reads what it likes
	}
	return p
}

func (p *plan) encode(e *Encoder, rv reflect.Value) error {
	if p.marshalVal && rv.CanInterface() {
		return rv.Interface().(Marshaler).MarshalXDR(e)
	}
	if p.marshalPtr && rv.CanAddr() && rv.CanInterface() {
		return rv.Addr().Interface().(Marshaler).MarshalXDR(e)
	}
	switch p.op {
	case opBool:
		e.PutBool(rv.Bool())
	case opInt32:
		e.PutUint32(uint32(int32(rv.Int())))
	case opUint32:
		e.PutUint32(uint32(rv.Uint()))
	case opInt64:
		e.PutUint64(uint64(rv.Int()))
	case opUint64:
		e.PutUint64(rv.Uint())
	case opFloat64:
		e.PutUint64(math.Float64bits(rv.Float()))
	case opString:
		if rv.Len() > MaxElements {
			return ErrTooLong
		}
		e.PutString(rv.String())
	case opBytes:
		if rv.Len() > MaxElements {
			return ErrTooLong
		}
		e.PutOpaque(rv.Bytes())
	case opByteArray:
		p.encodeByteArray(e, rv)
	case opSlice:
		n := rv.Len()
		if n > MaxElements {
			return ErrTooLong
		}
		e.PutUint32(uint32(n))
		for i := 0; i < n; i++ {
			if err := p.elem.encode(e, rv.Index(i)); err != nil {
				return err
			}
		}
	case opArray:
		for i := 0; i < p.n; i++ {
			if err := p.elem.encode(e, rv.Index(i)); err != nil {
				return err
			}
		}
	case opPtr:
		if rv.IsNil() {
			e.PutBool(false)
			return nil
		}
		e.PutBool(true)
		return p.elem.encode(e, rv.Elem())
	case opStruct:
		for i := range p.fields {
			f := &p.fields[i]
			if err := f.plan.encode(e, rv.Field(f.index)); err != nil {
				return fmt.Errorf("xdr: field %s: %w", f.label, err)
			}
		}
	case opInterface:
		if rv.CanInterface() {
			if m, ok := rv.Interface().(Marshaler); ok {
				return m.MarshalXDR(e)
			}
		}
		fallthrough
	default:
		return fmt.Errorf("xdr: unsupported type %s", p.typ)
	}
	return nil
}

// encodeByteArray appends a fixed opaque. Small arrays — every one on
// the wire today: host IDs, session IDs, verifiers — go straight into
// the buffer; one of payload class takes the slice path so gather mode
// and the wire-copy accounting see it as they always have, borrowing a
// private copy, never the caller's array.
func (p *plan) encodeByteArray(e *Encoder, rv reflect.Value) {
	if p.n >= BorrowThreshold {
		b := make([]byte, p.n)
		reflect.Copy(reflect.ValueOf(b), rv)
		e.PutFixedOpaque(b)
		return
	}
	if rv.CanAddr() {
		e.PutFixedOpaque(rv.Bytes())
		return
	}
	for i := 0; i < p.n; i++ {
		e.buf = append(e.buf, byte(rv.Index(i).Uint()))
	}
	for i := p.n; i%4 != 0; i++ {
		e.buf = append(e.buf, 0)
	}
}

func (p *plan) decode(d *Decoder, rv reflect.Value) error {
	if p.unmarshalPtr && rv.CanAddr() {
		return rv.Addr().Interface().(Unmarshaler).UnmarshalXDR(d)
	}
	switch p.op {
	case opBool:
		v, err := d.Bool()
		if err != nil {
			return err
		}
		rv.SetBool(v)
	case opInt32:
		v, err := d.Uint32()
		if err != nil {
			return err
		}
		rv.SetInt(int64(int32(v)))
	case opUint32:
		v, err := d.Uint32()
		if err != nil {
			return err
		}
		rv.SetUint(uint64(v))
	case opInt64:
		v, err := d.Uint64()
		if err != nil {
			return err
		}
		rv.SetInt(int64(v))
	case opUint64:
		v, err := d.Uint64()
		if err != nil {
			return err
		}
		rv.SetUint(v)
	case opFloat64:
		v, err := d.Uint64()
		if err != nil {
			return err
		}
		rv.SetFloat(math.Float64frombits(v))
	case opString:
		s, err := d.String()
		if err != nil {
			return err
		}
		rv.SetString(s)
	case opBytes:
		b, err := d.Opaque()
		if err != nil {
			return err
		}
		if len(b) >= BorrowThreshold {
			if d.borrow {
				d.borrowed += uint64(len(b))
				rv.SetBytes(b)
				return nil
			}
			d.copied += uint64(len(b))
		}
		c := make([]byte, len(b))
		copy(c, b)
		rv.SetBytes(c)
	case opByteArray:
		b, err := d.FixedOpaque(p.n)
		if err != nil {
			return err
		}
		if rv.CanAddr() {
			copy(rv.Bytes(), b)
		} else {
			reflect.Copy(rv, reflect.ValueOf(b))
		}
	case opSlice:
		n, err := d.Uint32()
		if err != nil {
			return err
		}
		if n > MaxElements {
			return ErrTooLong
		}
		if int(n) > d.Remaining()/max(p.elem.minWire, 1) {
			return io.ErrUnexpectedEOF
		}
		s := reflect.MakeSlice(p.typ, int(n), int(n))
		for i := 0; i < int(n); i++ {
			if err := p.elem.decode(d, s.Index(i)); err != nil {
				return err
			}
		}
		rv.Set(s)
	case opArray:
		for i := 0; i < p.n; i++ {
			if err := p.elem.decode(d, rv.Index(i)); err != nil {
				return err
			}
		}
	case opPtr:
		present, err := d.Bool()
		if err != nil {
			return err
		}
		if !present {
			rv.SetZero()
			return nil
		}
		nv := reflect.New(p.elem.typ)
		if err := p.elem.decode(d, nv.Elem()); err != nil {
			return err
		}
		rv.Set(nv)
	case opStruct:
		for i := range p.fields {
			f := &p.fields[i]
			if err := f.plan.decode(d, rv.Field(f.index)); err != nil {
				return fmt.Errorf("xdr: field %s: %w", f.label, err)
			}
		}
	default:
		return fmt.Errorf("xdr: unsupported type %s", p.typ)
	}
	return nil
}
