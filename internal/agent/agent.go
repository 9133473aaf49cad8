// Package agent implements the SFS user agent (sfsagent, paper §2.3,
// §2.5.1): the unprivileged per-user program that authenticates its
// user to remote servers, controls the user's view of the /sfs
// directory, and decides which HostIDs to treat as revoked or blocked.
//
// Every user on an SFS client runs an agent of his choice and can
// replace it at will — new user-authentication protocols need no
// client privileges. The agent:
//
//   - holds the user's private keys and signs authentication requests,
//     keeping a full audit trail of every private key operation;
//   - creates symbolic links in /sfs visible only to its own user,
//     mapping human-readable names to self-certifying pathnames;
//   - resolves names through a certification path: an ordered list of
//     directories of symbolic links (e.g. ~/.sfs/known_hosts, then a
//     certification authority), consulted in sequence;
//   - checks new self-certifying pathnames against revocation
//     certificates (its own store plus on-file revocation
//     directories), and honors HostID blocks.
package agent

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/sfsrpc"
)

// Resolver gives the agent read access to mounted SFS file systems so
// certification paths and revocation directories can live on remote,
// secure file systems. The client daemon implements it.
type Resolver interface {
	// ReadLink returns the target of the symbolic link at an
	// absolute path (which may itself be a self-certifying path).
	ReadLink(path string) (string, error)
	// ReadFile returns the contents of the file at an absolute path.
	ReadFile(path string) ([]byte, error)
}

// Errors.
var (
	ErrRevoked  = errors.New("agent: pathname revoked")
	ErrBlocked  = errors.New("agent: HostID blocked by agent")
	ErrNotFound = errors.New("agent: name not found")
)

// auditKeep is how many private-key operations the in-memory audit
// trail retains. An agent lives as long as its user's session and signs
// once per login on every connection, so an unbounded trail is a leak
// (the raw-loopback login workload grew it by ~100 B per operation,
// the largest live-heap item in the process); the newest entries are
// the ones an intrusion review needs.
const auditKeep = 4096

// AuditEntry records one private-key operation (paper §2.5.1: "an SFS
// agent can keep a full audit trail of every private key operation it
// performs").
type AuditEntry struct {
	Time     time.Time
	Location string
	HostID   core.HostID
	SeqNo    uint32
	AuthPath string
	KeyIndex int
}

// Agent is one user's agent.
type Agent struct {
	user string
	rng  *prng.Generator

	mu        sync.Mutex
	keys      []*rabin.PrivateKey
	resolver  Resolver
	links     map[string]string // dynamic symlinks in /sfs
	certPaths []string
	revDirs   []string
	revoked   map[core.HostID]*core.PathRevoke
	forwards  map[core.HostID]*core.PathRevoke
	blocked   map[core.HostID]bool
	bookmarks map[string]string
	// checking guards against re-entrant revocation lookups: the
	// revocation directory itself lives on an SFS path whose access
	// triggers CheckPath again.
	checking map[core.HostID]bool
	// remote, when set, forwards signing to a home agent (proxy
	// mode, paper §2.5.1).
	remote *remoteSigner
	// audit is a ring of the newest auditKeep entries; once full,
	// auditNext is the oldest entry and the next one overwritten.
	audit     []AuditEntry
	auditNext int
	// maxTries bounds authentication attempts per server before the
	// agent declines and the user proceeds anonymously.
	maxTries int
}

// New creates an agent for the named user.
func New(user string, rng *prng.Generator) *Agent {
	if rng == nil {
		rng = prng.New()
	}
	return &Agent{
		user:      user,
		rng:       rng,
		links:     make(map[string]string),
		revoked:   make(map[core.HostID]*core.PathRevoke),
		forwards:  make(map[core.HostID]*core.PathRevoke),
		blocked:   make(map[core.HostID]bool),
		bookmarks: make(map[string]string),
		checking:  make(map[core.HostID]bool),
		maxTries:  3,
	}
}

// User returns the agent's user name.
func (a *Agent) User() string { return a.user }

// SetResolver installs the client-provided resolver.
func (a *Agent) SetResolver(r Resolver) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.resolver = r
}

// AddKey loads a private key. Keys are tried in order during
// authentication.
func (a *Agent) AddKey(k *rabin.PrivateKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.keys = append(a.keys, k)
}

// Keys returns the public halves of the loaded keys.
func (a *Agent) Keys() []*rabin.PublicKey {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*rabin.PublicKey, len(a.keys))
	for i, k := range a.keys {
		out[i] = &k.PublicKey
	}
	return out
}

// Authenticate signs an authentication request for the given session
// using the attempt'th key (0-based). It returns the opaque AuthMsg
// bytes, or ok=false when the agent declines (no more keys or too
// many attempts) — at which point the user accesses the file system
// with anonymous permissions.
func (a *Agent) Authenticate(ai sfsrpc.AuthInfo, seqNo uint32, authPath string, attempt int) (msg []byte, ok bool) {
	a.mu.Lock()
	if rs := a.remote; rs != nil {
		a.mu.Unlock()
		return rs.authenticate(ai, seqNo, authPath, attempt)
	}
	defer a.mu.Unlock()
	if attempt >= len(a.keys) || attempt >= a.maxTries {
		return nil, false
	}
	k := a.keys[attempt]
	req := sfsrpc.SignedAuthReq{
		Tag: "SignedAuthReq", AuthID: ai.AuthID(), SeqNo: seqNo, AuthPath: authPath,
	}
	sig, err := k.Sign(a.rng, req.Digest())
	if err != nil {
		return nil, false
	}
	var hostID core.HostID
	copy(hostID[:], ai.HostID[:])
	entry := AuditEntry{
		Time: time.Now(), Location: ai.Location, HostID: hostID,
		SeqNo: seqNo, AuthPath: authPath, KeyIndex: attempt,
	}
	if len(a.audit) < auditKeep {
		a.audit = append(a.audit, entry)
	} else {
		a.audit[a.auditNext] = entry
		a.auditNext = (a.auditNext + 1) % auditKeep
	}
	m := sfsrpc.AuthMsg{UserKey: k.PublicKey.Bytes(), Req: req, Sig: *sig}
	return m.Marshal(), true
}

// Audit returns a copy of the audit trail, oldest entry first: the
// most recent auditKeep private-key operations.
func (a *Agent) Audit() []AuditEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditEntry, 0, len(a.audit))
	out = append(out, a.audit[a.auditNext:]...)
	return append(out, a.audit[:a.auditNext]...)
}

// Symlink creates (or replaces) a dynamic symbolic link in the
// agent's private view of /sfs.
func (a *Agent) Symlink(name, target string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.links[name] = target
}

// Unlink removes a dynamic link.
func (a *Agent) Unlink(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.links, name)
}

// Links returns a copy of the agent's /sfs links.
func (a *Agent) Links() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.links))
	for k, v := range a.links {
		out[k] = v
	}
	return out
}

// SetCertPaths installs the certification path: directories whose
// symbolic links resolve names in /sfs (paper §2.4, "Certification
// paths").
func (a *Agent) SetCertPaths(paths []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.certPaths = append([]string(nil), paths...)
}

// SetRevocationDirs installs directories containing revocation
// certificates named by HostID (paper §2.6).
func (a *Agent) SetRevocationDirs(dirs []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.revDirs = append([]string(nil), dirs...)
}

// LookupName maps a non-self-certifying name accessed under /sfs to a
// target, consulting the agent's own links first and then each
// certification path directory in sequence. The returned target is
// typically a self-certifying pathname; the client creates a symbolic
// link to it on the fly.
func (a *Agent) LookupName(name string) (string, error) {
	a.mu.Lock()
	if t, ok := a.links[name]; ok {
		a.mu.Unlock()
		return t, nil
	}
	paths := append([]string(nil), a.certPaths...)
	resolver := a.resolver
	a.mu.Unlock()
	if resolver == nil {
		return "", ErrNotFound
	}
	for _, dir := range paths {
		t, err := resolver.ReadLink(strings.TrimSuffix(dir, "/") + "/" + name)
		if err == nil {
			return t, nil
		}
	}
	return "", ErrNotFound
}

// AddRevocation verifies and stores a revocation certificate or
// forwarding pointer. A revocation certificate always overrules a
// forwarding pointer for the same HostID.
func (a *Agent) AddRevocation(cert *core.PathRevoke) error {
	id, err := cert.Verify()
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if cert.IsRevocation() {
		a.revoked[id] = cert
		delete(a.forwards, id)
		return nil
	}
	if _, dead := a.revoked[id]; dead {
		return nil // revocation overrules the forward
	}
	a.forwards[id] = cert
	return nil
}

// Block prevents this agent's user from accessing a HostID without
// requiring a signed revocation — e.g. when an external PKI revoked a
// relevant certificate. It affects no other users (paper §2.6).
func (a *Agent) Block(id core.HostID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.blocked[id] = true
}

// Unblock removes a block.
func (a *Agent) Unblock(id core.HostID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.blocked, id)
}

// CheckPath decides whether the user may access path. It returns:
//   - ErrBlocked if the agent's user blocked the HostID;
//   - ErrRevoked if a valid revocation certificate is known or found
//     in a revocation directory;
//   - a forwarding redirect (newPath, ErrRedirect) if a forwarding
//     pointer is known and no revocation overrules it;
//   - otherwise nil, permitting access.
func (a *Agent) CheckPath(p core.Path) (redirect *core.Path, err error) {
	a.mu.Lock()
	if a.blocked[p.HostID] {
		a.mu.Unlock()
		return nil, ErrBlocked
	}
	if _, ok := a.revoked[p.HostID]; ok {
		a.mu.Unlock()
		return nil, ErrRevoked
	}
	fwd := a.forwards[p.HostID]
	revDirs := append([]string(nil), a.revDirs...)
	resolver := a.resolver
	// Reading a revocation directory accesses an SFS path, which
	// triggers CheckPath again (including for the directory's own
	// server). Skip the directory consultation when a check for
	// this HostID is already on the stack; cached verdicts above
	// still apply.
	reentrant := a.checking[p.HostID]
	if !reentrant {
		a.checking[p.HostID] = true
	}
	a.mu.Unlock()

	// Consult revocation directories for fresh certificates.
	if resolver != nil && !reentrant {
		name := p.HostID.String()
		for _, dir := range revDirs {
			data, err := resolver.ReadFile(strings.TrimSuffix(dir, "/") + "/" + name)
			if err != nil {
				continue
			}
			cert, id, err := core.ParsePathRevoke(data)
			if err != nil || id != p.HostID {
				continue // forged or misplaced certificate: ignore
			}
			if err := a.AddRevocation(cert); err != nil {
				continue
			}
			if cert.IsRevocation() {
				a.doneChecking(p.HostID)
				return nil, ErrRevoked
			}
			fwd = cert
		}
	}
	if !reentrant {
		a.doneChecking(p.HostID)
	}
	if fwd != nil {
		t, err := fwd.ForwardTarget()
		if err != nil {
			return nil, ErrRevoked
		}
		t.Rest = p.Rest
		return &t, nil
	}
	return nil, nil
}

func (a *Agent) doneChecking(id core.HostID) {
	a.mu.Lock()
	delete(a.checking, id)
	a.mu.Unlock()
}

// Bookmark records a secure bookmark: the name maps back to the full
// self-certifying pathname (paper §2.4, the 10-line bookmark script).
func (a *Agent) Bookmark(name string, p core.Path) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bookmarks[name] = p.String()
}

// Bookmarks returns a copy of the bookmark table.
func (a *Agent) Bookmarks() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.bookmarks))
	for k, v := range a.bookmarks {
		out[k] = v
	}
	return out
}

// String describes the agent for debugging.
func (a *Agent) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return fmt.Sprintf("agent(%s, %d keys, %d links)", a.user, len(a.keys), len(a.links))
}
