package authserv

import (
	"errors"

	"repro/internal/crypto/blowfish"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rabin"
	"repro/internal/crypto/srp"
	"repro/internal/sfsrpc"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// Key service procedures (sfsrpc.KeyProgram). The service runs over a
// secure channel to the server, but the channel alone proves nothing
// about the server to a first-time user — SRP does that, letting a
// user with only a password securely download the server's
// self-certifying pathname and an encrypted copy of her private key
// (paper §2.4).
const (
	ProcSRPInit    = 1
	ProcSRPConfirm = 2
)

// Status codes for the key service.
const (
	keyOK     = 0
	keyNoUser = 1
	keyDenied = 2
)

type srpInitArgs struct {
	User string
	A    []byte
}

type srpInitRes struct {
	Status  uint32
	SRPSalt []byte
	EksSalt []byte
	EksCost uint32
	B       []byte
}

type srpConfirmArgs struct {
	M1 []byte
}

type srpConfirmRes struct {
	Status uint32
	M2     []byte
	// Sealed is the bundle below, sealed under the SRP session key.
	Sealed []byte
}

// srpBundle is what a password login downloads.
type srpBundle struct {
	SelfPath   string // the file server's self-certifying pathname
	EncPrivKey []byte // user's private key, still password-encrypted
}

// KeyServiceHandler returns a per-connection RPC handler for the key
// service. Each connection runs at most one SRP exchange; a fresh
// handler must be installed per accepted connection.
func (s *Server) KeyServiceHandler() sunrpc.Handler {
	var state *srp.Server
	var user *UserRecord
	return func(proc uint32, _ sunrpc.OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		switch proc {
		case ProcSRPInit:
			var a srpInitArgs
			if err := args.Decode(&a); err != nil {
				return nil, sunrpc.ErrGarbageArgs
			}
			s.met.srpInits.Inc()
			rec, _, ok := s.lookupName(a.User)
			if !ok || rec.SRPVerifier == nil {
				s.met.srpFails.Inc()
				// Deliberately indistinguishable timing would
				// require a dummy exchange; we return a
				// distinct status, as real SFS logs and rate-
				// limits on-line guessing instead (§2.4 fn 3).
				return srpInitRes{Status: keyNoUser, SRPSalt: []byte{}, EksSalt: []byte{}, B: []byte{}}, nil
			}
			srv, b, err := srp.NewServer(s.rng, rec.SRPVerifier, a.A)
			if err != nil {
				s.met.srpFails.Inc()
				return srpInitRes{Status: keyDenied, SRPSalt: []byte{}, EksSalt: []byte{}, B: []byte{}}, nil
			}
			state, user = srv, rec
			return srpInitRes{
				Status: keyOK, SRPSalt: rec.SRPSalt,
				EksSalt: rec.EksSalt, EksCost: rec.EksCost, B: b,
			}, nil
		case ProcSRPConfirm:
			var a srpConfirmArgs
			if err := args.Decode(&a); err != nil {
				return nil, sunrpc.ErrGarbageArgs
			}
			if state == nil {
				s.met.srpFails.Inc()
				return srpConfirmRes{Status: keyDenied, M2: []byte{}, Sealed: []byte{}}, nil
			}
			m2, key, err := state.Confirm(a.M1)
			state = nil
			if err != nil {
				s.met.srpFails.Inc()
				return srpConfirmRes{Status: keyDenied, M2: []byte{}, Sealed: []byte{}}, nil
			}
			enc := user.EncPrivKey
			if enc == nil {
				enc = []byte{}
			}
			bundle := xdr.MustMarshal(srpBundle{SelfPath: s.selfPath, EncPrivKey: enc})
			sealed, err := SealBytes(key, bundle, s.rng)
			if err != nil {
				s.met.srpFails.Inc()
				return srpConfirmRes{Status: keyDenied, M2: []byte{}, Sealed: []byte{}}, nil
			}
			s.met.srpConfirms.Inc()
			return srpConfirmRes{Status: keyOK, M2: m2, Sealed: sealed}, nil
		default:
			return nil, sunrpc.ErrProcUnavail
		}
	}
}

// FetchResult is what FetchWithPassword returns: everything a user
// needs to reach their files from anywhere given only a password.
type FetchResult struct {
	// SelfPath is the server's self-certifying pathname, downloaded
	// over the SRP-authenticated exchange.
	SelfPath string
	// PrivateKey is the user's key pair, decrypted locally with the
	// password. Nil if the user registered none.
	PrivateKey *rabin.PrivateKey
}

// FetchWithPassword performs the sfskey client side of the SRP
// exchange over an established RPC connection: negotiate a strong
// session key from the weak password, download the self-certifying
// pathname and encrypted private key, and decrypt the key locally.
// The server never sees password-equivalent data.
func FetchWithPassword(cl *sunrpc.Client, user, password string, rng *prng.Generator) (*FetchResult, error) {
	sc, a, err := srp.NewClient(rng, nil)
	if err != nil {
		return nil, err
	}
	var initRes srpInitRes
	if err := cl.Call(sfsrpc.KeyProgram, sfsrpc.Version, ProcSRPInit, sunrpc.NoAuth(),
		srpInitArgs{User: user, A: a}, &initRes); err != nil {
		return nil, err
	}
	if initRes.Status != keyOK {
		return nil, ErrNoUser
	}
	secret, err := blowfish.PasswordHash(uint(initRes.EksCost), initRes.EksSalt, []byte(password))
	if err != nil {
		return nil, err
	}
	sc.SetSecret(secret)
	m1, err := sc.React(initRes.SRPSalt, initRes.B)
	if err != nil {
		return nil, err
	}
	var confRes srpConfirmRes
	if err := cl.Call(sfsrpc.KeyProgram, sfsrpc.Version, ProcSRPConfirm, sunrpc.NoAuth(),
		srpConfirmArgs{M1: m1}, &confRes); err != nil {
		return nil, err
	}
	if confRes.Status != keyOK {
		return nil, ErrBadAuth
	}
	key, err := sc.Finish(confRes.M2)
	if err != nil {
		return nil, err
	}
	plain, err := OpenBytes(key, confRes.Sealed)
	if err != nil {
		return nil, err
	}
	var bundle srpBundle
	if err := xdr.Unmarshal(plain, &bundle); err != nil {
		return nil, errors.New("authserv: bad bundle from server")
	}
	res := &FetchResult{SelfPath: bundle.SelfPath}
	if len(bundle.EncPrivKey) > 0 {
		passKey, err := blowfish.PasswordKey(uint(initRes.EksCost), initRes.EksSalt, []byte(password))
		if err != nil {
			return nil, err
		}
		priv, err := OpenKey(passKey, bundle.EncPrivKey)
		if err != nil {
			return nil, err
		}
		res.PrivateKey = priv
	}
	return res, nil
}
