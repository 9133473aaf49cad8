package agent

import (
	"io"
	"sync"

	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// Proxy agents (paper §2.5.1): "Proxy agents could forward
// authentication requests to other SFS agents. We hope to build a
// remote login utility similar to ssh that acts as a proxy SFS agent.
// That way, users can automatically access their files when logging
// in to a remote machine."
//
// The protocol is two RPCs: sign a login, and approve carrying one
// into a resumed session. The home agent keeps the private keys, makes
// both decisions and keeps its audit trail (every request carries the
// path of machines it traveled through); the remote agent holds no key
// material at all, so compromising the remote machine after the
// session ends reveals nothing.

// AgentProgram is the agent↔agent RPC program.
const AgentProgram = 344445

// Agent proxy procedures.
const (
	// ProcSign asks the serving agent to sign an authentication
	// request.
	ProcSign = 1
	// ProcApprove asks the serving agent whether a login may be
	// carried into a resumed session (Agent.ApproveResume).
	ProcApprove = 2
)

type signArgs struct {
	AuthInfo sfsrpc.AuthInfo
	SeqNo    uint32
	AuthPath string
	Attempt  uint32
}

type signRes struct {
	OK  bool
	Msg []byte
}

type approveArgs struct {
	AuthInfo sfsrpc.AuthInfo
	SeqNo    uint32
	AuthPath string
	Prior    []byte
}

type approveRes struct {
	OK bool
}

// ServeSigner serves signing requests from a proxy agent on conn
// (typically a channel of an ssh-like remote login session). It
// returns when the connection fails. The serving agent appends the
// proxy hop to the audit path of every request it signs or approves.
func (a *Agent) ServeSigner(conn io.ReadWriteCloser) error {
	rpc := sunrpc.NewServer()
	rpc.Register(AgentProgram, sfsrpc.Version, func(proc uint32, _ sunrpc.OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		switch proc {
		case ProcSign:
			var sa signArgs
			if err := args.Decode(&sa); err != nil {
				return nil, sunrpc.ErrGarbageArgs
			}
			msg, ok := a.Authenticate(sa.AuthInfo, sa.SeqNo, sa.AuthPath, int(sa.Attempt))
			if !ok {
				return signRes{OK: false, Msg: []byte{}}, nil
			}
			return signRes{OK: true, Msg: msg}, nil
		case ProcApprove:
			var aa approveArgs
			if err := args.Decode(&aa); err != nil {
				return nil, sunrpc.ErrGarbageArgs
			}
			return approveRes{OK: a.ApproveResume(aa.AuthInfo, aa.SeqNo, aa.AuthPath, aa.Prior)}, nil
		}
		return nil, sunrpc.ErrProcUnavail
	})
	return rpc.ServeConn(conn)
}

// remoteSigner forwards signing to a home agent.
type remoteSigner struct {
	mu  sync.Mutex
	rpc *sunrpc.Client
	hop string
}

// UseRemoteSigner switches this agent into proxy mode: Authenticate
// and ApproveResume forward requests over conn to the agent served by
// ServeSigner at the other end, prefixing hop (e.g. "lab-host") to the
// audit path. Local keys, links, certification paths, and revocation
// state keep working as before — only signing and approving are
// delegated.
func (a *Agent) UseRemoteSigner(conn io.ReadWriteCloser, hop string) {
	rs := &remoteSigner{rpc: sunrpc.NewClient(conn), hop: hop}
	a.mu.Lock()
	a.remote = rs
	a.mu.Unlock()
}

// ClearRemoteSigner returns the agent to local signing.
func (a *Agent) ClearRemoteSigner() {
	a.mu.Lock()
	rs := a.remote
	a.remote = nil
	a.mu.Unlock()
	if rs != nil {
		rs.rpc.Close()
	}
}

// authenticate forwards one request; called by Authenticate when a
// remote signer is installed.
func (rs *remoteSigner) authenticate(ai sfsrpc.AuthInfo, seqNo uint32, authPath string, attempt int) ([]byte, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var res signRes
	err := rs.rpc.Call(AgentProgram, sfsrpc.Version, ProcSign, sunrpc.NoAuth(),
		signArgs{AuthInfo: ai, SeqNo: seqNo, AuthPath: rs.path(authPath), Attempt: uint32(attempt)}, &res)
	if err != nil || !res.OK {
		return nil, false
	}
	return res.Msg, true
}

// approve forwards one approval; called by ApproveResume when a remote
// signer is installed.
func (rs *remoteSigner) approve(ai sfsrpc.AuthInfo, seqNo uint32, authPath string, prior []byte) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var res approveRes
	err := rs.rpc.Call(AgentProgram, sfsrpc.Version, ProcApprove, sunrpc.NoAuth(),
		approveArgs{AuthInfo: ai, SeqNo: seqNo, AuthPath: rs.path(authPath), Prior: prior}, &res)
	return err == nil && res.OK
}

// path prefixes the proxy hop to a request's audit path.
func (rs *remoteSigner) path(authPath string) string {
	if authPath == "" {
		return rs.hop
	}
	return rs.hop + "!" + authPath
}
