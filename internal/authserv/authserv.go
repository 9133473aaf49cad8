// Package authserv implements the SFS authentication server (paper
// §2.5): the per-server daemon that translates user-authentication
// requests into credentials and manages users' keys.
//
// authserv consults one or more databases mapping public keys to
// users. Databases are writable or read-only; read-only databases can
// be imported from other servers (a department can maintain all its
// users centrally and export the database to separately-administered
// file servers without trusting them). Every writable database has
// two halves:
//
//   - a public half — public keys and credentials, safe to export to
//     the world, containing nothing with which an attacker could
//     verify a guessed password; and
//   - a private half — SRP verifiers and encrypted private keys,
//     needed only by servers users authenticate *servers* against.
//
// Passwords are transformed with eksblowfish so that even an attacker
// holding the private half pays ~1 CPU-second per candidate password
// (paper §2.5.2).
package authserv

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/crypto/blowfish"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/crypto/srp"
	"repro/internal/sfsrpc"
	"repro/internal/xdr"
)

// Errors.
var (
	ErrNoUser     = errors.New("authserv: no such user")
	ErrUserExists = errors.New("authserv: user already registered")
	ErrReadOnly   = errors.New("authserv: database is read-only")
	ErrBadAuth    = errors.New("authserv: authentication failed")
)

// keyFP fingerprints a public key for indexing.
type keyFP [sha1.Size]byte

func fingerprint(pub []byte) keyFP { return sha1.Sum(pub) }

// UserRecord is one user's entry. Public fields are safe to export;
// the SRP verifier and encrypted private key form the private half.
type UserRecord struct {
	User      string
	UID       uint32
	GIDs      []uint32
	PublicKey []byte

	// Private half (password authentication, paper §2.4):
	SRPSalt     []byte
	SRPVerifier []byte
	EksSalt     []byte
	EksCost     uint32
	EncPrivKey  []byte
}

// publicHalf strips the fields an attacker could use for off-line
// guessing.
func (u *UserRecord) publicHalf() UserRecord {
	return UserRecord{User: u.User, UID: u.UID, GIDs: u.GIDs, PublicKey: u.PublicKey}
}

// DB is one key database.
type DB struct {
	name     string
	writable bool

	mu     sync.RWMutex
	byKey  map[keyFP]*UserRecord
	byName map[string]*UserRecord
}

// NewDB creates an empty database.
func NewDB(name string, writable bool) *DB {
	return &DB{
		name:     name,
		writable: writable,
		byKey:    make(map[keyFP]*UserRecord),
		byName:   make(map[string]*UserRecord),
	}
}

// Name returns the database name.
func (db *DB) Name() string { return db.name }

// Put inserts or replaces a record.
func (db *DB) Put(rec UserRecord) error {
	if !db.writable {
		return ErrReadOnly
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.put(rec)
	return nil
}

func (db *DB) put(rec UserRecord) {
	if old, ok := db.byName[rec.User]; ok {
		delete(db.byKey, fingerprint(old.PublicKey))
	}
	r := rec
	db.byName[rec.User] = &r
	db.byKey[fingerprint(rec.PublicKey)] = &r
}

// Delete removes a user's record.
func (db *DB) Delete(user string) error {
	if !db.writable {
		return ErrReadOnly
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	old, ok := db.byName[user]
	if !ok {
		return ErrNoUser
	}
	delete(db.byKey, fingerprint(old.PublicKey))
	delete(db.byName, user)
	return nil
}

// ByKey looks a record up by public key.
func (db *DB) ByKey(pub []byte) (*UserRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.byKey[fingerprint(pub)]
	if !ok {
		return nil, false
	}
	cp := *r
	return &cp, true
}

// ByName looks a record up by user name.
func (db *DB) ByName(user string) (*UserRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.byName[user]
	if !ok {
		return nil, false
	}
	cp := *r
	return &cp, true
}

// exportRecords is the XDR container for database export.
type exportRecords struct {
	Name    string
	Records []UserRecord
}

// ExportPublic serializes the public half of the database: safe to
// serve to the world over SFS itself.
func (db *DB) ExportPublic() []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := exportRecords{Name: db.name}
	names := make([]string, 0, len(db.byName))
	for n := range db.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Records = append(out.Records, db.byName[n].publicHalf())
	}
	if out.Records == nil {
		out.Records = []UserRecord{}
	}
	return xdr.MustMarshal(out)
}

// Names returns the registered user names in sorted order.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.byName))
	for n := range db.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ExportFull serializes the complete database, private half included,
// for the authserver's own durable storage. Never export this off the
// server.
func (db *DB) ExportFull() []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := exportRecords{Name: db.name}
	names := make([]string, 0, len(db.byName))
	for n := range db.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out.Records = append(out.Records, *db.byName[n])
	}
	if out.Records == nil {
		out.Records = []UserRecord{}
	}
	return xdr.MustMarshal(out)
}

// ImportFull restores a database saved with ExportFull as a writable
// database.
func ImportFull(data []byte) (*DB, error) {
	var in exportRecords
	if err := xdr.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("authserv: bad database export: %w", err)
	}
	db := NewDB(in.Name, true)
	for _, rec := range in.Records {
		db.put(rec)
	}
	return db, nil
}

// ImportPublic builds a read-only database from an exported public
// half. authserv keeps such local copies and continues to function
// when the origin server is unreachable (paper §2.5.2).
func ImportPublic(data []byte) (*DB, error) {
	var in exportRecords
	if err := xdr.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("authserv: bad database export: %w", err)
	}
	db := NewDB(in.Name, false)
	for _, rec := range in.Records {
		if len(rec.SRPVerifier) > 0 || len(rec.EncPrivKey) > 0 {
			// A public export must not carry password
			// material; refuse rather than propagate it.
			return nil, errors.New("authserv: export contains private data")
		}
		db.put(rec)
	}
	return db, nil
}

// Server is the authserver: an ordered list of databases plus the
// self-certifying pathname it hands to password clients.
type Server struct {
	met serverMetrics

	mu         sync.RWMutex
	dbs        []*DB
	selfPath   string // the file server's self-certifying pathname
	rng        *prng.Generator
	guestCreds *sfsrpc.Credentials
}

// New creates an authserver whose SRP clients will be told the file
// server lives at selfPath.
func New(selfPath string, rng *prng.Generator) *Server {
	if rng == nil {
		rng = prng.New()
	}
	return &Server{selfPath: selfPath, rng: rng}
}

// AddDB appends a database; earlier databases take precedence.
func (s *Server) AddDB(db *DB) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dbs = append(s.dbs, db)
}

// SetGuestCredentials configures the credentials handed to valid
// logins whose key is found in no database. Nil (the default)
// rejects such logins.
func (s *Server) SetGuestCredentials(c *sfsrpc.Credentials) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.guestCreds = c
}

// SelfPath returns the file server's self-certifying pathname.
func (s *Server) SelfPath() string { return s.selfPath }

// lookupKey searches databases in order.
func (s *Server) lookupKey(pub []byte) (*UserRecord, bool) {
	s.mu.RLock()
	dbs := s.dbs
	s.mu.RUnlock()
	for _, db := range dbs {
		if r, ok := db.ByKey(pub); ok {
			return r, true
		}
	}
	return nil, false
}

// lookupName searches databases in order.
func (s *Server) lookupName(user string) (*UserRecord, *DB, bool) {
	s.mu.RLock()
	dbs := s.dbs
	s.mu.RUnlock()
	for _, db := range dbs {
		if r, ok := db.ByName(user); ok {
			return r, db, true
		}
	}
	return nil, nil, false
}

// Validate checks an authentication request against the databases and
// returns credentials (paper §3.1.2): verify the signature, check the
// signed AuthID, then map the public key to credentials.
func (s *Server) Validate(args sfsrpc.ValidateArgs) sfsrpc.ValidateRes {
	s.met.attempts.Inc()
	msg, err := sfsrpc.ParseAuthMsg(args.AuthMsg)
	if err != nil {
		s.met.failures.Inc()
		return sfsrpc.ValidateRes{}
	}
	pub, err := msg.Verify(args.AuthInfo, args.SeqNo)
	if err != nil {
		s.met.failures.Inc()
		return sfsrpc.ValidateRes{}
	}
	creds, guest, ok := s.credentialsFor(pub.Bytes())
	switch {
	case !ok:
		s.met.failures.Inc()
		return sfsrpc.ValidateRes{}
	case guest:
		s.met.okGuest.Inc()
	default:
		s.met.okUser.Inc()
	}
	return sfsrpc.ValidateRes{OK: true, Creds: creds, AuthID: msg.Req.AuthID, SeqNo: msg.Req.SeqNo}
}

// Recheck reports whether the databases still map pub to creds: the
// mapping half of Validate, without a signature. The file server runs
// it before it carries a login into a resumed session (DESIGN.md
// §14), so a deleted user, a changed key or changed UID/GIDs fall back
// to a full login.
func (s *Server) Recheck(pub []byte, creds sfsrpc.Credentials) bool {
	now, _, ok := s.credentialsFor(pub)
	return ok && now.Equal(creds)
}

// credentialsFor maps a public key to credentials: its record in the
// first database that holds it, else the guest credentials (guest
// true), else nothing.
func (s *Server) credentialsFor(pub []byte) (creds sfsrpc.Credentials, guest, ok bool) {
	if rec, found := s.lookupKey(pub); found {
		return sfsrpc.Credentials{User: rec.User, UID: rec.UID, GIDs: rec.GIDs}, false, true
	}
	s.mu.RLock()
	g := s.guestCreds
	s.mu.RUnlock()
	if g == nil {
		return sfsrpc.Credentials{}, false, false
	}
	return *g, true, true
}

// NameOfID returns the user (or group) name behind a numeric ID, for
// the libsfs ID-mapping service (paper §3.3). Groups share the user
// namespace in this reproduction (each user's primary group carries
// the user's name). Empty when unknown.
func (s *Server) NameOfID(id uint32, group bool) string {
	s.mu.RLock()
	dbs := s.dbs
	s.mu.RUnlock()
	for _, db := range dbs {
		db.mu.RLock()
		for _, rec := range db.byName {
			if !group && rec.UID == id {
				name := rec.User
				db.mu.RUnlock()
				return name
			}
			if group {
				for _, g := range rec.GIDs {
					if g == id {
						name := rec.User
						db.mu.RUnlock()
						return name
					}
				}
			}
		}
		db.mu.RUnlock()
	}
	return ""
}

// RegisterOptions controls Register.
type RegisterOptions struct {
	// Password enables SRP password authentication and, when
	// PrivateKey is also set, stores an encrypted copy of the
	// private key retrievable with the password (paper §2.4).
	Password string
	// PrivateKey is the user's key pair; its public half is always
	// stored. The private half is stored only encrypted, and only
	// when Password is set.
	PrivateKey *rabin.PrivateKey
	// EksCost overrides the eksblowfish work factor (0 = default).
	EksCost uint
}

// Register adds a user to db with the given Unix credentials.
func (s *Server) Register(db *DB, user string, uid uint32, gids []uint32, opts RegisterOptions) error {
	if opts.PrivateKey == nil {
		return errors.New("authserv: registration requires a key pair")
	}
	if _, ok := db.ByName(user); ok {
		return ErrUserExists
	}
	if gids == nil {
		gids = []uint32{}
	}
	rec := UserRecord{
		User: user, UID: uid, GIDs: gids,
		PublicKey: opts.PrivateKey.PublicKey.Bytes(),
	}
	if opts.Password != "" {
		cost := opts.EksCost
		if cost == 0 {
			cost = blowfish.DefaultCost
		}
		rec.EksCost = uint32(cost)
		rec.EksSalt = s.rng.Bytes(16)
		secret, err := blowfish.PasswordHash(cost, rec.EksSalt, []byte(opts.Password))
		if err != nil {
			return err
		}
		rec.SRPSalt = s.rng.Bytes(16)
		rec.SRPVerifier = srp.Verifier(rec.SRPSalt, secret)
		passKey, err := blowfish.PasswordKey(cost, rec.EksSalt, []byte(opts.Password))
		if err != nil {
			return err
		}
		sealed, err := SealKey(passKey, opts.PrivateKey, s.rng)
		if err != nil {
			return err
		}
		rec.EncPrivKey = sealed
	}
	return db.Put(rec)
}
