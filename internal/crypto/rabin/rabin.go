// Package rabin implements the Rabin–Williams public-key cryptosystem
// SFS uses for encryption and signing (paper §3.1.3).
//
// Rabin assumes only that factoring is hard. Like low-exponent RSA,
// encryption and signature verification are particularly fast because
// they need no modular exponentiation — both are a single modular
// squaring. The implementation follows the paper's security claims:
//
//   - Encryption uses OAEP (Bellare–Rogaway optimal asymmetric
//     encryption) with SHA-1, making it plaintext-aware and secure
//     against adaptive chosen-ciphertext attacks in the random-oracle
//     model.
//   - Signing uses a salted full-domain hash (the probabilistic FDH of
//     Bellare–Rogaway "exact security of digital signatures"), secure
//     against adaptive chosen-message attacks.
//
// Keys use Williams' prime structure p ≡ 3 (mod 8), q ≡ 7 (mod 8), so
// n ≡ 5 (mod 8), the Jacobi symbol (2/n) = −1, and (−1/p) = (−1/q) =
// −1. Multiplying by the tweaks e ∈ {1, −1} and f ∈ {1, 2} therefore
// maps any h with gcd(h, n) = 1 to a quadratic residue, giving every
// value a square root.
//
// Signing costs two half-size exponentiations and one CRT: the roots
// of h mod p and mod q reveal both Legendre symbols, and the tweaks
// are applied to the roots rather than to h (see Sign; derivation in
// DESIGN.md §7).
package rabin

import (
	"crypto/sha1"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/xdr"
)

// SaltSize is the number of random salt bytes in a signature.
const SaltSize = 20

// MinBits is the smallest modulus size New will generate. The paper
// era used 1024-bit keys; tests use smaller moduli for speed.
const MinBits = 256

var (
	// ErrDecrypt is returned for any undecryptable ciphertext. The
	// cause is deliberately not disclosed.
	ErrDecrypt = errors.New("rabin: decryption error")
	// ErrVerify is returned when a signature does not check.
	ErrVerify = errors.New("rabin: invalid signature")
	// ErrMessageTooLong is returned when a plaintext exceeds the
	// OAEP capacity of the key.
	ErrMessageTooLong = errors.New("rabin: message too long for key size")
)

// PublicKey is a Rabin–Williams public key: just the modulus.
type PublicKey struct {
	N *big.Int
}

// PrivateKey holds the factorization and CRT precomputation.
type PrivateKey struct {
	PublicKey
	P, Q *big.Int

	expP, expQ       *big.Int // (p+1)/4, (q+1)/4 for square roots
	qInvP            *big.Int // q^{-1} mod p
	twoExpP, twoExpQ *big.Int // 2^expP mod p, 2^expQ mod q: the f=2 tweak applied to a root
}

// wireKey is the canonical XDR form of a public key. HostIDs and all
// protocol messages embed keys in this encoding.
type wireKey struct {
	Type string // "rabin"
	N    []byte
}

// Bytes returns the canonical wire encoding of the public key.
func (k *PublicKey) Bytes() []byte {
	return xdr.MustMarshal(wireKey{Type: "rabin", N: k.N.Bytes()})
}

// ParsePublicKey decodes a key produced by Bytes.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	var w wireKey
	if err := xdr.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("rabin: bad public key encoding: %w", err)
	}
	if w.Type != "rabin" {
		return nil, fmt.Errorf("rabin: unknown key type %q", w.Type)
	}
	n := new(big.Int).SetBytes(w.N)
	if n.BitLen() < MinBits {
		return nil, errors.New("rabin: modulus too small")
	}
	if n.Bit(0) == 0 {
		return nil, errors.New("rabin: even modulus")
	}
	return &PublicKey{N: n}, nil
}

// Equal reports whether two public keys are the same key.
func (k *PublicKey) Equal(o *PublicKey) bool {
	return o != nil && k.N.Cmp(o.N) == 0
}

// size returns the modulus length in bytes.
func (k *PublicKey) size() int { return (k.N.BitLen() + 7) / 8 }

// wirePrivate is the canonical XDR form of a private key, used only
// for encrypted storage with the authserver (paper §2.4).
type wirePrivate struct {
	Type string // "rabin-priv"
	P    []byte
	Q    []byte
}

// PrivateBytes returns the canonical private-key encoding. Callers
// must encrypt it before storage.
func (k *PrivateKey) PrivateBytes() []byte {
	return xdr.MustMarshal(wirePrivate{Type: "rabin-priv", P: k.P.Bytes(), Q: k.Q.Bytes()})
}

// ParsePrivateKey decodes a key produced by PrivateBytes and checks
// its structure.
func ParsePrivateKey(b []byte) (*PrivateKey, error) {
	var w wirePrivate
	if err := xdr.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("rabin: bad private key encoding: %w", err)
	}
	if w.Type != "rabin-priv" {
		return nil, fmt.Errorf("rabin: unknown private key type %q", w.Type)
	}
	p := new(big.Int).SetBytes(w.P)
	q := new(big.Int).SetBytes(w.Q)
	eight := big.NewInt(8)
	if new(big.Int).Mod(p, eight).Int64() != 3 || new(big.Int).Mod(q, eight).Int64() != 7 {
		return nil, errors.New("rabin: private key has wrong prime structure")
	}
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return nil, errors.New("rabin: private key factors not prime")
	}
	k := newPrivateKey(p, q)
	if k.N.BitLen() < MinBits {
		return nil, errors.New("rabin: private key too small")
	}
	return k, nil
}

// GenerateKey creates a key whose modulus has approximately bits bits,
// reading randomness from r (typically a *prng.Generator or
// crypto/rand.Reader).
func GenerateKey(r io.Reader, bits int) (*PrivateKey, error) {
	if bits < MinBits {
		return nil, fmt.Errorf("rabin: key size %d below minimum %d", bits, MinBits)
	}
	p, err := genPrime(r, bits/2, 3)
	if err != nil {
		return nil, err
	}
	q, err := genPrime(r, bits-bits/2, 7)
	if err != nil {
		return nil, err
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("rabin: degenerate key")
	}
	return newPrivateKey(p, q), nil
}

func newPrivateKey(p, q *big.Int) *PrivateKey {
	n := new(big.Int).Mul(p, q)
	one := big.NewInt(1)
	k := &PrivateKey{
		PublicKey: PublicKey{N: n},
		P:         p,
		Q:         q,
	}
	k.expP = new(big.Int).Add(p, one)
	k.expP.Rsh(k.expP, 2)
	k.expQ = new(big.Int).Add(q, one)
	k.expQ.Rsh(k.expQ, 2)
	k.qInvP = new(big.Int).ModInverse(q, p)
	two := big.NewInt(2)
	k.twoExpP = new(big.Int).Exp(two, k.expP, p)
	k.twoExpQ = new(big.Int).Exp(two, k.expQ, q)
	return k
}

// genPrime returns a prime of the given bit length congruent to
// residue mod 8.
func genPrime(r io.Reader, bits int, residue int64) (*big.Int, error) {
	if bits < 16 {
		return nil, errors.New("rabin: prime too small")
	}
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	eight := big.NewInt(8)
	res := big.NewInt(residue)
	for tries := 0; tries < 10000; tries++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		p := new(big.Int).SetBytes(buf)
		// Clamp to exactly `bits` bits with the top two bits set so
		// the product of two primes has the requested size.
		mask := new(big.Int).Lsh(big.NewInt(1), uint(bits))
		mask.Sub(mask, big.NewInt(1))
		p.And(p, mask)
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		// Adjust residue class mod 8.
		m := new(big.Int).Mod(p, eight)
		diff := new(big.Int).Sub(res, m)
		diff.Mod(diff, eight)
		p.Add(p, diff)
		// Search upward in steps of 8, keeping the residue.
		for i := 0; i < 4096; i++ {
			if p.BitLen() != bits {
				break
			}
			if p.ProbablyPrime(20) {
				return p, nil
			}
			p.Add(p, eight)
		}
	}
	return nil, errors.New("rabin: prime generation failed")
}

// mgf1 expands (label, seeds...) to length bytes with SHA-1 counter
// hashing, the OAEP mask generation function.
func mgf1(length int, label string, seeds ...[]byte) []byte {
	out := make([]byte, 0, length+sha1.Size)
	var ctr uint32
	for len(out) < length {
		h := sha1.New()
		h.Write([]byte(label))
		for _, s := range seeds {
			h.Write(s)
		}
		h.Write([]byte{byte(ctr >> 24), byte(ctr >> 16), byte(ctr >> 8), byte(ctr)})
		out = h.Sum(out)
		ctr++
	}
	return out[:length]
}

// MaxPlaintext returns the largest message Encrypt accepts under k.
func (k *PublicKey) MaxPlaintext() int {
	// EM = 00 || seed(20) || DB; DB = lhash(20) || PS || 01 || msg
	return k.size() - 2*sha1.Size - 2
}

var oaepLHash = sha1.Sum([]byte("SFS-OAEP"))

// Encrypt OAEP-encrypts msg under k using randomness from rand.
func (k *PublicKey) Encrypt(rand io.Reader, msg []byte) ([]byte, error) {
	kLen := k.size()
	if len(msg) > k.MaxPlaintext() {
		return nil, ErrMessageTooLong
	}
	// Build DB = lHash || PS || 0x01 || msg filling em[1+seed:].
	dbLen := kLen - sha1.Size - 1
	db := make([]byte, dbLen)
	copy(db, oaepLHash[:])
	db[dbLen-len(msg)-1] = 0x01
	copy(db[dbLen-len(msg):], msg)
	seed := make([]byte, sha1.Size)
	if _, err := io.ReadFull(rand, seed); err != nil {
		return nil, err
	}
	dbMask := mgf1(dbLen, "db", seed)
	for i := range db {
		db[i] ^= dbMask[i]
	}
	seedMask := mgf1(sha1.Size, "seed", db)
	maskedSeed := make([]byte, sha1.Size)
	for i := range seed {
		maskedSeed[i] = seed[i] ^ seedMask[i]
	}
	em := make([]byte, kLen)
	copy(em[1:], maskedSeed)
	copy(em[1+sha1.Size:], db)
	m := new(big.Int).SetBytes(em)
	c := new(big.Int).Mul(m, m)
	c.Mod(c, k.N)
	return c.FillBytes(make([]byte, kLen)), nil
}

// oaepDecode inverts the OAEP transform; it returns the message or an
// error if the structure does not check.
func oaepDecode(em []byte) ([]byte, error) {
	kLen := len(em)
	if kLen < 2*sha1.Size+2 || em[0] != 0 {
		return nil, ErrDecrypt
	}
	maskedSeed := em[1 : 1+sha1.Size]
	db := append([]byte(nil), em[1+sha1.Size:]...)
	seedMask := mgf1(sha1.Size, "seed", db)
	seed := make([]byte, sha1.Size)
	for i := range seed {
		seed[i] = maskedSeed[i] ^ seedMask[i]
	}
	dbMask := mgf1(len(db), "db", seed)
	for i := range db {
		db[i] ^= dbMask[i]
	}
	for i := 0; i < sha1.Size; i++ {
		if db[i] != oaepLHash[i] {
			return nil, ErrDecrypt
		}
	}
	rest := db[sha1.Size:]
	for i, b := range rest {
		switch b {
		case 0:
			continue
		case 1:
			return rest[i+1:], nil
		default:
			return nil, ErrDecrypt
		}
	}
	return nil, ErrDecrypt
}

// crt combines residues mod p and q into a residue mod n.
func (k *PrivateKey) crt(rp, rq *big.Int) *big.Int {
	// x = rq + q * ((rp - rq) * qInvP mod p)
	t := new(big.Int).Sub(rp, rq)
	t.Mul(t, k.qInvP)
	t.Mod(t, k.P)
	t.Mul(t, k.Q)
	t.Add(t, rq)
	return t.Mod(t, k.N)
}

// Decrypt decrypts an OAEP ciphertext. The four square roots are
// ±crt(rp, rq) and ±crt(rp, −rq); they are tried lazily and the OAEP
// redundancy identifies the correct one, so a valid ciphertext costs
// at most two CRTs. If c is not a residue mod both primes the CRT
// values won't square to c and are skipped.
func (k *PrivateKey) Decrypt(ct []byte) ([]byte, error) {
	kLen := k.size()
	if len(ct) != kLen {
		return nil, ErrDecrypt
	}
	c := new(big.Int).SetBytes(ct)
	if c.Cmp(k.N) >= 0 {
		return nil, ErrDecrypt
	}
	rp := new(big.Int).Mod(c, k.P)
	rp.Exp(rp, k.expP, k.P)
	rq := new(big.Int).Mod(c, k.Q)
	rq.Exp(rq, k.expQ, k.Q)
	sq := new(big.Int)
	em := make([]byte, kLen)
	for half := 0; half < 2; half++ {
		if half == 1 {
			rq.Sub(k.Q, rq)
		}
		r := k.crt(rp, rq)
		sq.Mul(r, r)
		sq.Mod(sq, k.N)
		if sq.Cmp(c) != 0 {
			continue
		}
		for neg := 0; neg < 2; neg++ {
			if neg == 1 {
				r.Sub(k.N, r)
			}
			if msg, err := oaepDecode(r.FillBytes(em)); err == nil {
				return msg, nil
			}
		}
	}
	return nil, ErrDecrypt
}

// signPad maps (salt, digest) to an integer in [0, 2^(8(k-1))) by
// full-domain expansion.
func signPad(kLen int, salt, digest []byte) *big.Int {
	em := mgf1(kLen-1, "RWS", salt, digest)
	return new(big.Int).SetBytes(em)
}

// Signature is a Rabin–Williams signature: the principal square root
// of the tweaked message representative plus the salt needed to
// recompute that representative.
type Signature struct {
	Salt [SaltSize]byte
	Root []byte
}

// Sign produces a signature over digest (any byte string; callers
// conventionally pass a SHA-1 hash of an XDR structure).
//
// With h the padded representative, rp = h^((p+1)/4) mod p squares to
// (h/p)·h, so comparing rp² with h reads the Legendre symbol off the
// root computation itself; likewise mod q. The Williams tweaks follow:
// f = 2 iff the two symbols differ (Jacobi(h, n) = −1), and e = −1 iff
// f·h is then a non-residue mod p (and so mod q too). The root of
// v = e·f·h is (e·f)^((p+1)/4)·rp mod p and (e·f)^((q+1)/4)·rq mod q:
// (p+1)/4 is odd for p ≡ 3 (mod 8), so e carries over to the p-side
// root; (q+1)/4 is even for q ≡ 7 (mod 8), so it vanishes on the
// q-side. One CRT joins them.
func (k *PrivateKey) Sign(rand io.Reader, digest []byte) (*Signature, error) {
	kLen := k.size()
	var sig Signature
	hp, hq, sq := new(big.Int), new(big.Int), new(big.Int)
	for attempt := 0; attempt < 32; attempt++ {
		if _, err := io.ReadFull(rand, sig.Salt[:]); err != nil {
			return nil, err
		}
		h := signPad(kLen, sig.Salt[:], digest)
		hp.Mod(h, k.P)
		hq.Mod(h, k.Q)
		if hp.Sign() == 0 || hq.Sign() == 0 {
			continue // gcd(h, n) ≠ 1: negligible probability; re-salt
		}
		rp := new(big.Int).Exp(hp, k.expP, k.P)
		rq := new(big.Int).Exp(hq, k.expQ, k.Q)
		resP := sq.Mul(rp, rp).Mod(sq, k.P).Cmp(hp) == 0
		resQ := sq.Mul(rq, rq).Mod(sq, k.Q).Cmp(hq) == 0

		// v = e·f·h, built in place: past this point only hp and hq
		// stand for the untweaked h.
		v := h
		if resP != resQ { // f = 2; (2/p) = −1 flips the p-side symbol
			v.Lsh(v, 1)
			if v.Cmp(k.N) >= 0 {
				v.Sub(v, k.N)
			}
			rp.Mul(rp, k.twoExpP).Mod(rp, k.P)
			rq.Mul(rq, k.twoExpQ).Mod(rq, k.Q)
		}
		if !resQ { // e = −1; after f both symbols equal (h/q)
			v.Sub(k.N, v)
			rp.Sub(k.P, rp)
		}
		r := k.crt(rp, rq)
		// A fault anywhere above (a bad CRT constant, a flipped bit in
		// an exponentiation) yields an r that is right mod one prime
		// only, and gcd(r² − v, n) would factor n. Never release a root
		// that does not square to v.
		if sq.Mul(r, r).Mod(sq, k.N).Cmp(v) != 0 {
			return nil, errors.New("rabin: computed root does not square to its representative")
		}
		sig.Root = r.FillBytes(make([]byte, kLen))
		return &sig, nil
	}
	return nil, errors.New("rabin: no salt gave a representative coprime to the modulus")
}

// Verify checks sig over digest. Verification is a single modular
// squaring compared against the four tweak candidates.
func (k *PublicKey) Verify(digest []byte, sig *Signature) error {
	kLen := k.size()
	if sig == nil || len(sig.Root) != kLen {
		return ErrVerify
	}
	s := new(big.Int).SetBytes(sig.Root)
	if s.Cmp(k.N) >= 0 {
		return ErrVerify
	}
	h := signPad(kLen, sig.Salt[:], digest)
	if h.Cmp(k.N) >= 0 {
		return ErrVerify
	}
	// s² = e·f·h mod n for e ∈ {1, −1}, f ∈ {1, 2}: one of ±s² must
	// equal h or 2h.
	sq := new(big.Int).Mul(s, s)
	sq.Mod(sq, k.N)
	neg := new(big.Int).Sub(k.N, sq)
	h2 := new(big.Int).Lsh(h, 1)
	if h2.Cmp(k.N) >= 0 {
		h2.Sub(h2, k.N)
	}
	if sq.Cmp(h) == 0 || neg.Cmp(h) == 0 || sq.Cmp(h2) == 0 || neg.Cmp(h2) == 0 {
		return nil
	}
	return ErrVerify
}

// SignMessage hashes msg with SHA-1 and signs the digest.
func (k *PrivateKey) SignMessage(rand io.Reader, msg []byte) (*Signature, error) {
	d := sha1.Sum(msg)
	return k.Sign(rand, d[:])
}

// VerifyMessage hashes msg with SHA-1 and verifies sig over the digest.
func (k *PublicKey) VerifyMessage(msg []byte, sig *Signature) error {
	d := sha1.Sum(msg)
	return k.Verify(d[:], sig)
}
