// Package sfsrpc defines the SFS user-authentication protocol
// structures and RPC program numbers shared by the client, server,
// agent, and authserver (paper §3.1.2, Figure 4).
//
// SFS identifies sessions uniquely with an AuthInfo structure bound to
// the secure channel's SessionID. When a user first accesses a file
// system, the client sends the AuthInfo and a fresh sequence number to
// the user's agent; the agent hashes the AuthInfo to a 20-byte AuthID,
// concatenates the sequence number, signs the result, and appends the
// user's public key. The file server forwards this opaque message to
// the authserver, which validates the signature and maps the public
// key to local credentials.
package sfsrpc

import (
	"crypto/sha1"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/crypto/rabin"
	"repro/internal/xdr"
)

// RPC program numbers for the SFS services.
const (
	// FileProgram is the read-write file protocol (NFS 3 based),
	// served over the secure channel.
	FileProgram = 344440
	// AuthProgram is the agent-opaque user-authentication service a
	// file server exposes next to the file protocol.
	AuthProgram = 344442
	// KeyProgram is the sfskey↔authserver management service (SRP
	// password login, key registration).
	KeyProgram = 344443
	// ROProgram is the read-only dialect protocol (paper §2.4).
	ROProgram = 344446
)

// Versions.
const Version = 1

// File-auth service procedures (AuthProgram).
const (
	// ProcLogin submits an authentication message; the reply carries
	// an authentication number or a retry indication.
	ProcLogin = 1
	// ProcResumeLogin carries a login of the session this one resumed
	// into this session, with no signature (ResumeLoginArgs; DESIGN.md
	// §14). The reply is a LoginRes; anything but LoginOK means "log in
	// in full".
	ProcResumeLogin = 2
)

// AuthInfo identifies one session at one file system. Its hash is the
// AuthID users sign.
type AuthInfo struct {
	Tag       string // "AuthInfo"
	Type      string // "FS"
	Location  string
	HostID    [core.HostIDSize]byte
	SessionID [sha1.Size]byte
}

// NewAuthInfo builds the AuthInfo for a session at path.
func NewAuthInfo(location string, hostID core.HostID, sessionID [sha1.Size]byte) AuthInfo {
	var h [core.HostIDSize]byte
	copy(h[:], hostID[:])
	return AuthInfo{Tag: "AuthInfo", Type: "FS", Location: location, HostID: h, SessionID: sessionID}
}

// AuthID returns SHA-1 of the marshaled AuthInfo.
func (ai AuthInfo) AuthID() [sha1.Size]byte {
	return sha1.Sum(xdr.MustMarshal(ai))
}

// SignedAuthReq is the structure whose hash the agent signs.
type SignedAuthReq struct {
	Tag    string // "SignedAuthReq"
	AuthID [sha1.Size]byte
	SeqNo  uint32
	// AuthPath records the path of processes and machines through
	// which the request arrived at the agent, for the agent's audit
	// trail (paper §2.5.1). Opaque to the file system.
	AuthPath string
}

// Digest returns the bytes the signature covers.
func (r SignedAuthReq) Digest() []byte {
	d := sha1.Sum(xdr.MustMarshal(r))
	return d[:]
}

// AuthMsg is the opaque authentication message: the signed request
// plus the user's public key. The client treats it as opaque data.
type AuthMsg struct {
	UserKey []byte // canonical public key encoding
	Req     SignedAuthReq
	Sig     rabin.Signature
}

// Marshal encodes the message for transport.
func (m *AuthMsg) Marshal() []byte { return xdr.MustMarshal(*m) }

// ParseAuthMsg decodes an AuthMsg.
func ParseAuthMsg(b []byte) (*AuthMsg, error) {
	var m AuthMsg
	if err := xdr.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Verify checks the message's signature and that it speaks for
// authInfo with the given sequence number. It returns the embedded
// public key on success.
func (m *AuthMsg) Verify(ai AuthInfo, seqNo uint32) (*rabin.PublicKey, error) {
	pub, err := rabin.ParsePublicKey(m.UserKey)
	if err != nil {
		return nil, err
	}
	if m.Req.AuthID != ai.AuthID() {
		return nil, rabin.ErrVerify
	}
	if m.Req.SeqNo != seqNo {
		return nil, rabin.ErrVerify
	}
	if err := pub.Verify(m.Req.Digest(), &m.Sig); err != nil {
		return nil, err
	}
	return pub, nil
}

// Credentials are what the authserver maps a public key to: a Unix
// user ID and group list (paper §2.5.1).
type Credentials struct {
	User string
	UID  uint32
	GIDs []uint32
}

// Equal reports whether c and o are the same user, UID and groups.
func (c Credentials) Equal(o Credentials) bool {
	return c.User == o.User && c.UID == o.UID && slices.Equal(c.GIDs, o.GIDs)
}

// LoginArgs is the client→server (and server→authserver) request.
type LoginArgs struct {
	SeqNo   uint32
	AuthMsg []byte // marshaled AuthMsg, opaque to the client
}

// Login status codes.
const (
	LoginOK    = 0 // authenticated; AuthNo valid
	LoginAgain = 1 // rejected; the agent may try other credentials
	LoginNo    = 2 // rejected; stop trying (fall back to anonymous)
)

// LoginRes is the reply: an authentication number the client tags
// subsequent file system requests with. Zero is reserved for
// anonymous access.
type LoginRes struct {
	Status uint32
	AuthNo uint32
}

// ResumeLoginArgs claims, in a resumed session, the login the resumed
// session granted as AuthNo. Proof is the MAC only the two ends of
// that session can compute: secchan.Resumed.LoginProof over this
// session's AuthID, SeqNo and AuthNo. SeqNo shares the session's
// Fig. 4 window with ProcLogin.
type ResumeLoginArgs struct {
	AuthNo uint32
	SeqNo  uint32
	Proof  [sha1.Size]byte
}

// Grant is what one authentication number means at the server: the
// public key that logged in and the credentials the authserver mapped
// it to.
type Grant struct {
	UserKey []byte
	Creds   Credentials
}

// Grants is one session's table of logins: the server, not the
// client, decides what an authentication number means (paper
// §3.1.2). Numbers are handed out from 1; 0 stays anonymous. A
// session's table outlives its connection in the resumption cache, so
// the session resuming it can carry its logins over (DESIGN.md §14).
// The zero value is an empty table; methods are safe for concurrent
// use.
type Grants struct {
	mu sync.Mutex
	g  []Grant // authentication number n is g[n-1]
}

// Add records a grant and returns its authentication number.
func (t *Grants) Add(g Grant) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.g = append(t.g, g)
	return uint32(len(t.g))
}

// Get returns the grant behind an authentication number.
func (t *Grants) Get(no uint32) (Grant, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if no == 0 || uint64(no) > uint64(len(t.g)) {
		return Grant{}, false
	}
	return t.g[no-1], true
}

// ValidateArgs is what the file server hands the authserver: the
// session's AuthInfo plus the opaque login request.
type ValidateArgs struct {
	AuthInfo AuthInfo
	SeqNo    uint32
	AuthMsg  []byte
}

// ValidateRes returns credentials for a valid request.
type ValidateRes struct {
	OK    bool
	Creds Credentials
	// AuthID and SeqNo echo the signed values so the server can
	// check them against the session (paper §3.1.2).
	AuthID [sha1.Size]byte
	SeqNo  uint32
}
