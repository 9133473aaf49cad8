package xdr_test

// The compiled plans of plan.go against the walker they replaced. The
// old reflection walker lives on here, and only here, as the oracle:
// it asks reflect everything afresh for every field of every message,
// which is slow and is exactly what makes it a trustworthy reference.
// It is written against the package's exported API, so this file can
// import the packages whose wire types it checks.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

func oracleEncode(e *xdr.Encoder, rv reflect.Value) error {
	if !rv.IsValid() {
		return errors.New("xdr: cannot encode invalid value")
	}
	if rv.CanInterface() {
		if m, ok := rv.Interface().(xdr.Marshaler); ok {
			return m.MarshalXDR(e)
		}
		if rv.CanAddr() {
			if m, ok := rv.Addr().Interface().(xdr.Marshaler); ok {
				return m.MarshalXDR(e)
			}
		}
	}
	switch rv.Kind() {
	case reflect.Bool:
		e.PutBool(rv.Bool())
	case reflect.Int8, reflect.Int16, reflect.Int32:
		e.PutUint32(uint32(int32(rv.Int())))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32:
		e.PutUint32(uint32(rv.Uint()))
	case reflect.Int, reflect.Int64:
		e.PutUint64(uint64(rv.Int()))
	case reflect.Uint, reflect.Uint64:
		e.PutUint64(rv.Uint())
	case reflect.Float64:
		e.PutUint64(math.Float64bits(rv.Float()))
	case reflect.String:
		if rv.Len() > xdr.MaxElements {
			return xdr.ErrTooLong
		}
		e.PutString(rv.String())
	case reflect.Slice:
		if rv.Len() > xdr.MaxElements {
			return xdr.ErrTooLong
		}
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			e.PutOpaque(rv.Bytes())
			return nil
		}
		e.PutUint32(uint32(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			if err := oracleEncode(e, rv.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Array:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			b := make([]byte, rv.Len())
			reflect.Copy(reflect.ValueOf(b), rv)
			e.PutFixedOpaque(b)
			return nil
		}
		for i := 0; i < rv.Len(); i++ {
			if err := oracleEncode(e, rv.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Ptr:
		if rv.IsNil() {
			e.PutBool(false)
			return nil
		}
		e.PutBool(true)
		return oracleEncode(e, rv.Elem())
	case reflect.Struct:
		t := rv.Type()
		for i := 0; i < rv.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue // unexported
			}
			if err := oracleEncode(e, rv.Field(i)); err != nil {
				return fmt.Errorf("xdr: field %s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf("xdr: unsupported type %s", rv.Type())
	}
	return nil
}

// oracleDecode is the old decodeValue. One line is new — the element
// count checked against the bytes that remain, marked below — because
// without it a mutated count makes the oracle itself allocate
// gigabytes before it fails, and no fuzzer survives that. The check
// only turns a late error into an early one.
func oracleDecode(d *xdr.Decoder, rv reflect.Value, borrow bool) error {
	if rv.CanAddr() {
		if u, ok := rv.Addr().Interface().(xdr.Unmarshaler); ok {
			return u.UnmarshalXDR(d)
		}
	}
	switch rv.Kind() {
	case reflect.Bool:
		v, err := d.Bool()
		if err != nil {
			return err
		}
		rv.SetBool(v)
	case reflect.Int8, reflect.Int16, reflect.Int32:
		v, err := d.Uint32()
		if err != nil {
			return err
		}
		rv.SetInt(int64(int32(v)))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32:
		v, err := d.Uint32()
		if err != nil {
			return err
		}
		rv.SetUint(uint64(v))
	case reflect.Int, reflect.Int64:
		v, err := d.Uint64()
		if err != nil {
			return err
		}
		rv.SetInt(int64(v))
	case reflect.Uint, reflect.Uint64:
		v, err := d.Uint64()
		if err != nil {
			return err
		}
		rv.SetUint(v)
	case reflect.Float64:
		v, err := d.Uint64()
		if err != nil {
			return err
		}
		rv.SetFloat(math.Float64frombits(v))
	case reflect.String:
		s, err := d.String()
		if err != nil {
			return err
		}
		rv.SetString(s)
	case reflect.Slice:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			b, err := d.Opaque()
			if err != nil {
				return err
			}
			if len(b) >= xdr.BorrowThreshold && borrow {
				rv.SetBytes(b)
				return nil
			}
			c := make([]byte, len(b))
			copy(c, b)
			rv.SetBytes(c)
			return nil
		}
		n, err := d.Uint32()
		if err != nil {
			return err
		}
		if n > xdr.MaxElements {
			return xdr.ErrTooLong
		}
		if int(n) > d.Remaining() { // new: see above
			return io.ErrUnexpectedEOF
		}
		s := reflect.MakeSlice(rv.Type(), int(n), int(n))
		for i := 0; i < int(n); i++ {
			if err := oracleDecode(d, s.Index(i), borrow); err != nil {
				return err
			}
		}
		rv.Set(s)
	case reflect.Array:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			b, err := d.FixedOpaque(rv.Len())
			if err != nil {
				return err
			}
			reflect.Copy(rv, reflect.ValueOf(b))
			return nil
		}
		for i := 0; i < rv.Len(); i++ {
			if err := oracleDecode(d, rv.Index(i), borrow); err != nil {
				return err
			}
		}
	case reflect.Ptr:
		present, err := d.Bool()
		if err != nil {
			return err
		}
		if !present {
			rv.Set(reflect.Zero(rv.Type()))
			return nil
		}
		nv := reflect.New(rv.Type().Elem())
		if err := oracleDecode(d, nv.Elem(), borrow); err != nil {
			return err
		}
		rv.Set(nv)
	case reflect.Struct:
		t := rv.Type()
		for i := 0; i < rv.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue
			}
			if err := oracleDecode(d, rv.Field(i), borrow); err != nil {
				return fmt.Errorf("xdr: field %s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf("xdr: unsupported type %s", rv.Type())
	}
	return nil
}

// union encodes itself: arm 1 carries a string, any other arm nothing.
type union struct {
	Arm  uint32
	Text string
}

func (u union) MarshalXDR(e *xdr.Encoder) error {
	e.PutUint32(u.Arm)
	if u.Arm == 1 {
		e.PutString(u.Text)
	}
	return nil
}

func (u *union) UnmarshalXDR(d *xdr.Decoder) (err error) {
	if u.Arm, err = d.Uint32(); err != nil || u.Arm != 1 {
		return err
	}
	u.Text, err = d.String()
	return err
}

// chain is a recursive type: a plan for it must find itself.
type chain struct {
	V    int32
	Next *chain
}

// torture holds every shape the wire types do not: small integers,
// nested fixed arrays, a recursive pointer, a self-encoding member
// among plain ones, an unexported field in the middle.
type torture struct {
	B      bool
	I8     int8
	U16    uint16
	I      int
	F      float64
	hidden uint32
	Tags   [3][2]byte
	Pairs  [2]struct{ A, B uint32 }
	Chain  *chain
	U      union
	Us     []union
	Names  []string
	Opt    **uint64
	Empty  struct{}
	Blobs  [][]byte
	Wide   [5]byte
}

// wireTypes are the decoders' targets: every exported message of the
// nfs, sunrpc, sfsrpc and secchan protocols, then the torture type.
var wireTypes = []reflect.Type{
	reflect.TypeOf(nfs.Fattr{}), reflect.TypeOf(nfs.SetAttrArgs{}), reflect.TypeOf(nfs.FHArgs{}),
	reflect.TypeOf(nfs.AttrRes{}), reflect.TypeOf(nfs.DirOpArgs{}), reflect.TypeOf(nfs.LookupRes{}),
	reflect.TypeOf(nfs.AccessArgs{}), reflect.TypeOf(nfs.AccessRes{}), reflect.TypeOf(nfs.ReadlinkRes{}),
	reflect.TypeOf(nfs.ReadArgs{}), reflect.TypeOf(nfs.ReadRes{}), reflect.TypeOf(nfs.WriteArgs{}),
	reflect.TypeOf(nfs.WriteRes{}), reflect.TypeOf(nfs.CommitRes{}), reflect.TypeOf(nfs.CreateArgs{}),
	reflect.TypeOf(nfs.MkdirArgs{}), reflect.TypeOf(nfs.SymlinkArgs{}), reflect.TypeOf(nfs.RenameArgs{}),
	reflect.TypeOf(nfs.LinkArgs{}), reflect.TypeOf(nfs.StatusRes{}), reflect.TypeOf(nfs.ReadDirArgs{}),
	reflect.TypeOf(nfs.Entry{}), reflect.TypeOf(nfs.ReadDirRes{}), reflect.TypeOf(nfs.FSInfoRes{}),
	reflect.TypeOf(nfs.MountRootRes{}), reflect.TypeOf(nfs.InvalidateArgs{}), reflect.TypeOf(nfs.IDNamesArgs{}),
	reflect.TypeOf(nfs.IDNamesRes{}),
	reflect.TypeOf(sunrpc.OpaqueAuth{}),
	reflect.TypeOf(sfsrpc.AuthInfo{}), reflect.TypeOf(sfsrpc.SignedAuthReq{}), reflect.TypeOf(sfsrpc.AuthMsg{}),
	reflect.TypeOf(sfsrpc.Credentials{}), reflect.TypeOf(sfsrpc.LoginArgs{}), reflect.TypeOf(sfsrpc.LoginRes{}),
	reflect.TypeOf(sfsrpc.ValidateArgs{}), reflect.TypeOf(sfsrpc.ValidateRes{}),
	reflect.TypeOf(secchan.ConnectRequest{}), reflect.TypeOf(core.PathRevoke{}),
	reflect.TypeOf(torture{}), reflect.TypeOf(uint32(0)), reflect.TypeOf(""), reflect.TypeOf([]byte(nil)),
}

// checkAgainstOracle decodes data as wireTypes[ti] with the plan and
// with the oracle and requires the same outcome: both fail, or both
// succeed with equal values and equal bytes consumed. On success the
// value is encoded by both, and the bytes must match.
func checkAgainstOracle(t *testing.T, ti int, data []byte, borrow bool) {
	typ := wireTypes[ti%len(wireTypes)]
	got, want := reflect.New(typ), reflect.New(typ)

	dp := xdr.NewDecoder(data)
	dp.SetBorrow(borrow)
	errPlan := dp.Decode(got.Interface())
	do := xdr.NewDecoder(data)
	errOracle := oracleDecode(do, want.Elem(), borrow)
	if (errPlan == nil) != (errOracle == nil) {
		t.Fatalf("%s: plan err %v, oracle err %v", typ, errPlan, errOracle)
	}
	if errPlan != nil {
		return
	}
	if !reflect.DeepEqual(got.Interface(), want.Interface()) {
		t.Fatalf("%s: plan decoded %+v, oracle %+v", typ, got.Elem(), want.Elem())
	}
	if dp.Remaining() != do.Remaining() {
		t.Fatalf("%s: plan left %d bytes, oracle %d", typ, dp.Remaining(), do.Remaining())
	}
	if borrow && dp.CopiedBytes() != 0 {
		t.Fatalf("%s: borrowing decoder copied %d payload bytes", typ, dp.CopiedBytes())
	}

	// Encode by value, as handlers return results (nothing is
	// addressable), and through the pointer (everything is: the way a
	// byte array is reached without a copy), flat and gathered.
	forms := [][2]reflect.Value{
		{got.Elem(), reflect.ValueOf(want.Elem().Interface())},
		{got, want},
	}
	for i := 0; i < 4; i++ {
		form, gather := forms[i/2], i%2 == 1
		var ep, eo xdr.Encoder
		ep.SetGather(gather)
		eo.SetGather(gather)
		errPlan, errOracle = ep.Encode(form[0].Interface()), oracleEncode(&eo, form[1])
		if (errPlan == nil) != (errOracle == nil) {
			t.Fatalf("%s: plan encode err %v, oracle %v", typ, errPlan, errOracle)
		}
		if errPlan != nil {
			continue
		}
		bp, bo := bytes.Join(ep.Segments(), nil), bytes.Join(eo.Segments(), nil)
		if !bytes.Equal(bp, bo) {
			t.Fatalf("%s form %d: plan encoded %x, oracle %x", typ, i, bp, bo)
		}
		if ep.PayloadBytes() != eo.PayloadBytes() || ep.BorrowedBytes() != eo.BorrowedBytes() || ep.CopiedBytes() != eo.CopiedBytes() {
			t.Fatalf("%s form %d: wire-copy accounting differs", typ, i)
		}
	}
}

func FuzzDecodePlan(f *testing.F) {
	attr := &nfs.Fattr{Type: nfs.TypeReg, Mode: 0o644, Nlink: 1, Size: 8192, FileID: 42, LeaseMS: 60000}
	two := uint64(2)
	ptwo := &two
	seeds := []interface{}{
		*attr,
		nfs.AttrRes{Attr: attr},
		nfs.AttrRes{Status: nfs.ErrStale},
		nfs.ReadRes{Attr: attr, Count: 2048, EOF: true, Data: bytes.Repeat([]byte{0xa5}, 2048)},
		nfs.WriteArgs{FH: nfs.FH("handle"), Offset: 8192, Stable: nfs.FileSync, Data: bytes.Repeat([]byte{7}, 1025)},
		nfs.SetAttrArgs{FH: nfs.FH("h"), SetSize: &two},
		nfs.ReadDirRes{Entries: []nfs.Entry{{FileID: 1, Name: "a", Cookie: 1, FH: nfs.FH("fh"), Attr: attr}, {FileID: 2, Name: "bb", Cookie: 2}}, EOF: true},
		nfs.LookupRes{FH: nfs.FH("child"), Attr: attr, DirAttr: attr},
		sunrpc.SFSAuth(7),
		sunrpc.UnixAuth(1000, []uint32{1000, 20}),
		sfsrpc.AuthInfo{Tag: "AuthInfo", Type: "FS", Location: "files.example.com"},
		sfsrpc.ValidateRes{OK: true, Creds: sfsrpc.Credentials{User: "alice", UID: 1000, GIDs: []uint32{1000}}},
		secchan.ConnectRequest{Tag: "SFS_CONNECT", Service: 1, Version: 1, Location: "h", Extensions: []string{"x", "yz"}},
		torture{B: true, I8: -3, U16: 65535, I: -1, F: 2.5, Tags: [3][2]byte{{1, 2}, {3, 4}, {5, 6}},
			Chain: &chain{V: 1, Next: &chain{V: 2}}, U: union{Arm: 1, Text: "arm"}, Us: []union{{Arm: 0}, {Arm: 1, Text: "t"}},
			Names: []string{"", "abc"}, Opt: &ptwo, Blobs: [][]byte{{}, {1, 2, 3}}, Wide: [5]byte{1, 2, 3, 4, 5}},
		uint32(7), "string", []byte("opaque"),
	}
	for _, v := range seeds {
		ti := -1
		for i, t := range wireTypes {
			if t == reflect.TypeOf(v) {
				ti = i
			}
		}
		if ti < 0 {
			f.Fatalf("seed type %T is not a wire type", v)
		}
		b := xdr.MustMarshal(v)
		f.Add(uint8(ti), b, false)
		f.Add(uint8(ti), b, true)
		f.Add(uint8(ti), b[:len(b)/2], false)
	}
	// A forged element count far past the input's end.
	f.Add(uint8(len(wireTypes)-4), append(xdr.MustMarshal(torture{}), 0xff, 0xff, 0xff), false)
	f.Fuzz(func(t *testing.T, ti uint8, data []byte, borrow bool) {
		checkAgainstOracle(t, int(ti), data, borrow)
	})
}

// TestPlanErrorWrapping pins the message shape callers and logs see.
func TestPlanErrorWrapping(t *testing.T) {
	err := xdr.Unmarshal([]byte{0, 0, 0, 0, 0, 0, 0, 2}, &nfs.AttrRes{})
	if err == nil || err.Error() != "xdr: field AttrRes.Attr: xdr: invalid bool discriminant 2" {
		t.Fatalf("decode error = %v", err)
	}
	type bad struct {
		OK   uint32
		Chan chan int
	}
	err = (&xdr.Encoder{}).Encode(bad{})
	if err == nil || err.Error() != "xdr: field bad.Chan: xdr: unsupported type chan int" {
		t.Fatalf("encode error = %v", err)
	}
	if err := (&xdr.Encoder{}).Encode(nil); err == nil {
		t.Fatal("Encode(nil) succeeded")
	}
}

// TestForgedCountDoesNotAllocate: an element count is believed only
// as far as the remaining bytes could back it.
func TestForgedCountDoesNotAllocate(t *testing.T) {
	data := []byte{0x00, 0xff, 0xff, 0xff} // 16M-1 entries, no bytes behind them
	var out []nfs.Entry
	allocs := testing.AllocsPerRun(10, func() {
		if err := xdr.Unmarshal(data, &out); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want unexpected EOF", err)
		}
	})
	if allocs > 2 {
		t.Fatalf("%v allocations decoding a forged count", allocs)
	}
}

// TestPlanCacheConcurrent hits the plan cache from many goroutines at
// once, as every dispatch worker does — including the first build of
// types no one has used yet, a recursive one among them. Run under
// -race (CI's Race step).
func TestPlanCacheConcurrent(t *testing.T) {
	type fresh struct {
		A    uint32
		Next *fresh
		L    []fresh
		H    [20]byte
	}
	in := fresh{A: 1, Next: &fresh{A: 2, L: []fresh{{A: 3}}}, H: [20]byte{9}}
	want := xdr.MustMarshal(in)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b, err := xdr.Marshal(in)
				if err != nil || !bytes.Equal(b, want) {
					t.Errorf("marshal: %v", err)
					return
				}
				var out fresh
				if err := xdr.Unmarshal(b, &out); err != nil || !bytes.Equal(xdr.MustMarshal(out), want) {
					t.Errorf("unmarshal: %v", err)
					return
				}
				var res nfs.ReadDirRes
				_ = xdr.Unmarshal(b, &res) // a second type racing through the cache
			}
		}()
	}
	wg.Wait()
}
