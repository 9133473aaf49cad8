package xdr

import (
	"testing"
)

// benchMsg is shaped like the hot wire structures: a fixed header of
// integers, an authenticator-style opaque, and an NFS READ-sized
// payload.
type benchMsg struct {
	XID    uint32
	Prog   uint32
	Vers   uint32
	Proc   uint32
	Flavor uint32
	Body   []byte
	Offset uint64
	Data   []byte
}

// BenchmarkEncodeDecodeRoundTrip measures the full marshal/unmarshal
// cycle of a READ-reply-sized message, the per-RPC cost the pooled
// encoder path is meant to keep allocation-light.
func BenchmarkEncodeDecodeRoundTrip(b *testing.B) {
	msg := benchMsg{
		XID: 7, Prog: 100003, Vers: 3, Proc: 6, Flavor: 390041,
		Body:   []byte{0, 0, 0, 1},
		Offset: 1 << 20,
		Data:   make([]byte, 8192),
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(msg.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		if err := e.Encode(msg); err != nil {
			b.Fatal(err)
		}
		var out benchMsg
		if err := Unmarshal(e.Bytes(), &out); err != nil {
			b.Fatal(err)
		}
		PutEncoder(e)
	}
}

// BenchmarkEncodeOnly isolates the encode half (the server reply
// path: one pooled encoder per dispatched call).
func BenchmarkEncodeOnly(b *testing.B) {
	msg := benchMsg{
		XID: 7, Prog: 100003, Vers: 3, Proc: 6, Flavor: 390041,
		Body:   []byte{0, 0, 0, 1},
		Offset: 1 << 20,
		Data:   make([]byte, 8192),
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(msg.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		if err := e.Encode(msg); err != nil {
			b.Fatal(err)
		}
		PutEncoder(e)
	}
}

// callHeader and attrRes mirror the two small structures every RPC
// encodes or decodes (sunrpc's call header, nfs.AttrRes with its
// Fattr): nested structs, a short opaque, an optional pointer. They
// are the rungs for the per-type plans: no payload, all field walk.
type callHeader struct {
	RPCVers, Prog, Vers, Proc uint32
	Cred, Verf                struct {
		Flavor uint32
		Body   []byte
	}
}

type attrRes struct {
	Status uint32
	Attr   *struct {
		Type, Mode, Nlink, UID, GID       uint32
		Size, FileID, Atime, Mtime, Ctime uint64
		LeaseMS                           uint32
	}
}

func BenchmarkEncodeCallHeader(b *testing.B) {
	h := callHeader{RPCVers: 2, Prog: 100003, Vers: 3, Proc: 1}
	h.Cred.Flavor, h.Cred.Body = 390041, []byte{0, 0, 0, 7}
	var v interface{} = h // boxed once, as a handler's result is
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := GetEncoder()
		if err := e.Encode(v); err != nil {
			b.Fatal(err)
		}
		PutEncoder(e)
	}
}

func BenchmarkDecodeAttrRes(b *testing.B) {
	var in attrRes
	in.Attr = new(struct {
		Type, Mode, Nlink, UID, GID       uint32
		Size, FileID, Atime, Mtime, Ctime uint64
		LeaseMS                           uint32
	})
	in.Attr.Size, in.Attr.LeaseMS = 8192, 60000
	data := MustMarshal(in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out attrRes
		if err := Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}
