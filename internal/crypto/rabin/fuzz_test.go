package rabin

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/crypto/prng"
	"repro/internal/xdr"
)

// Native fuzz targets for the three places this package decodes bytes
// an attacker chooses: a server's public key (self-certifying paths,
// key negotiation), a private key blob (fetched from the authserver
// and decrypted with a password), and a signature (user login,
// revocation certificates, sfsro roots). Seeds live in
// testdata/fuzz/<target>/ plus the f.Add calls below; CI runs each
// target for a short fixed budget.

// fuzzKey is the 256-bit key of the committed signature vectors: small
// enough that a fuzz iteration costs microseconds.
func fuzzKey(t testing.TB) (*PrivateKey, katSet) {
	t.Helper()
	for _, set := range loadKAT(t) {
		if set.Name == "256" {
			return set.key(t), set
		}
	}
	t.Fatal("no 256-bit vector set")
	return nil, katSet{}
}

func FuzzParsePublicKey(f *testing.F) {
	k, _ := fuzzKey(f)
	f.Add(k.PublicKey.Bytes())
	f.Add(testKey(f, 512).PublicKey.Bytes())
	digest := []byte("12345678901234567890")
	f.Fuzz(func(t *testing.T, b []byte) {
		pub, err := ParsePublicKey(b)
		if err != nil {
			return
		}
		if pub.N.Bit(0) == 0 || pub.N.BitLen() < MinBits {
			t.Fatalf("accepted a modulus this package must refuse: %x", pub.N)
		}
		again, err := ParsePublicKey(pub.Bytes())
		if err != nil || !again.Equal(pub) {
			t.Fatalf("accepted key does not survive re-encoding: %v", err)
		}
		// Whatever modulus got through, the public operations must
		// neither panic nor accept junk.
		sig := &Signature{Root: make([]byte, pub.size())}
		sig.Root[len(sig.Root)-1] = 3
		if pub.Verify(digest, sig) == nil {
			t.Fatal("constant root verified")
		}
		if _, err := pub.Encrypt(prng.NewSeeded(b), digest[:4]); err != nil && err != ErrMessageTooLong {
			t.Fatalf("encrypt under accepted key: %v", err)
		}
	})
}

func FuzzParsePrivateKey(f *testing.F) {
	k, _ := fuzzKey(f)
	f.Add(k.PrivateBytes())
	digest := []byte("12345678901234567890")
	eight := big.NewInt(8)
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 512 {
			return // primality tests on kilobyte "primes" only burn budget
		}
		priv, err := ParsePrivateKey(b)
		if err != nil {
			return
		}
		if new(big.Int).Mod(priv.P, eight).Int64() != 3 || new(big.Int).Mod(priv.Q, eight).Int64() != 7 ||
			new(big.Int).Mul(priv.P, priv.Q).Cmp(priv.N) != 0 || priv.N.BitLen() < MinBits {
			t.Fatalf("accepted a malformed private key p=%x q=%x", priv.P, priv.Q)
		}
		// An accepted key must be a working key.
		g := prng.NewSeeded(b)
		sig, err := priv.Sign(g, digest)
		if err != nil {
			t.Fatalf("sign under accepted key: %v", err)
		}
		if err := priv.Verify(digest, sig); err != nil {
			t.Fatalf("own signature rejected: %v", err)
		}
		if max := priv.MaxPlaintext(); max >= 4 {
			ct, err := priv.Encrypt(g, digest[:4])
			if err != nil {
				t.Fatal(err)
			}
			if pt, err := priv.Decrypt(ct); err != nil || !bytes.Equal(pt, digest[:4]) {
				t.Fatalf("round trip under accepted key: %v", err)
			}
		}
	})
}

// FuzzVerifySignature feeds Verify what the protocols feed it: an
// XDR-encoded Signature off the wire. Verify may accept only a root of
// a committed vector's tweaked representative — the committed root or
// its additive inverse, under the committed salt. Anything else
// accepted is a forgery.
func FuzzVerifySignature(f *testing.F) {
	k, set := fuzzKey(f)
	const nVec = 8
	type known struct {
		digest, salt, root, negRoot []byte
	}
	var vecs [nVec]known
	for i := range vecs {
		v := set.Vectors[i]
		root := unhex(f, v.Root)
		neg := new(big.Int).Sub(k.N, new(big.Int).SetBytes(root))
		vecs[i] = known{unhex(f, v.Digest), unhex(f, v.Salt), root, neg.FillBytes(make([]byte, len(root)))}
		var sig Signature
		copy(sig.Salt[:], vecs[i].salt)
		sig.Root = root
		f.Add(uint8(i), xdr.MustMarshal(sig))
	}
	f.Fuzz(func(t *testing.T, which uint8, enc []byte) {
		var sig Signature
		if err := xdr.Unmarshal(enc, &sig); err != nil {
			return
		}
		v := vecs[which%nVec]
		if k.Verify(v.digest, &sig) != nil {
			return
		}
		if !bytes.Equal(sig.Salt[:], v.salt) || (!bytes.Equal(sig.Root, v.root) && !bytes.Equal(sig.Root, v.negRoot)) {
			t.Fatalf("forgery accepted: salt %x root %x", sig.Salt, sig.Root)
		}
	})
}
