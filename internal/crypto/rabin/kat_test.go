package rabin

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"math/big"
	"os"
	"sync"
	"testing"

	"repro/internal/crypto/prng"
)

// testdata/sign_vectors.json was written by the three-exponentiation
// Sign this package had before the two-exponentiation rewrite (see the
// file's comment field). Sign must keep reproducing it byte for byte:
// the signature is a deterministic function of (key, digest, salt), and
// the salt stream is consumed identically, including redraws.
type katSet struct {
	Name    string `json:"name"`
	P       string `json:"p"`
	Q       string `json:"q"`
	Seed    string `json:"seed"`
	Vectors []struct {
		Digest string `json:"digest"`
		Salt   string `json:"salt"`
		Root   string `json:"root"`
	} `json:"vectors"`
}

func loadKAT(t testing.TB) []katSet {
	t.Helper()
	raw, err := os.ReadFile("testdata/sign_vectors.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Sets []katSet `json:"sets"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f.Sets
}

func (s *katSet) key(t testing.TB) *PrivateKey {
	t.Helper()
	p, ok1 := new(big.Int).SetString(s.P, 16)
	q, ok2 := new(big.Int).SetString(s.Q, 16)
	if !ok1 || !ok2 {
		t.Fatalf("set %s: bad prime", s.Name)
	}
	return newPrivateKey(p, q)
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tweakClass recovers which (e, f) the signer applied from the public
// relation s² ≡ e·f·h (mod n): 0 = (1,1), 1 = (−1,1), 2 = (1,2),
// 3 = (−1,2), −1 = not a signature.
func tweakClass(k *PublicKey, digest []byte, sig *Signature) int {
	s := new(big.Int).SetBytes(sig.Root)
	sq := new(big.Int).Mul(s, s)
	sq.Mod(sq, k.N)
	c := signPad(k.size(), sig.Salt[:], digest)
	for class := 0; class < 4; class++ {
		if class == 2 {
			c.Lsh(c, 1).Mod(c, k.N)
		}
		v := new(big.Int).Set(c)
		if class&1 == 1 {
			v.Sub(k.N, v)
		}
		if sq.Cmp(v) == 0 {
			return class
		}
	}
	return -1
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func TestSignKnownAnswers(t *testing.T) {
	sets := loadKAT(t)
	if len(sets) != 4 {
		t.Fatalf("%d vector sets, want tiny+256+512+1024", len(sets))
	}
	for _, set := range sets {
		t.Run(set.Name, func(t *testing.T) {
			if len(set.Vectors) < 200 {
				t.Fatalf("only %d vectors", len(set.Vectors))
			}
			k := set.key(t)
			g := &countingReader{r: prng.NewSeeded([]byte(set.Seed))}
			var classes [4]int
			for i, v := range set.Vectors {
				digest := unhex(t, v.Digest)
				sig, err := k.Sign(g, digest)
				if err != nil {
					t.Fatalf("vector %d: %v", i, err)
				}
				if got := hex.EncodeToString(sig.Salt[:]); got != v.Salt {
					t.Fatalf("vector %d: salt %s, want %s", i, got, v.Salt)
				}
				if got := hex.EncodeToString(sig.Root); got != v.Root {
					t.Fatalf("vector %d: root %s, want %s", i, got, v.Root)
				}
				if err := k.Verify(digest, sig); err != nil {
					t.Fatalf("vector %d: committed signature rejected: %v", i, err)
				}
				class := tweakClass(&k.PublicKey, digest, sig)
				if class < 0 {
					t.Fatalf("vector %d: root squares to no tweak of h", i)
				}
				classes[class]++
			}
			for class, n := range classes {
				if n == 0 {
					t.Errorf("tweak class %d (e=%d, f=%d) not covered", class, 1-2*(class&1), 1+class>>1)
				}
			}
			redraws := g.n/SaltSize - len(set.Vectors)
			if set.Name == "tiny" && redraws == 0 {
				t.Error("tiny set never redrew a salt; the re-salt path is untested")
			}
			t.Logf("classes (1,1)/(-1,1)/(1,2)/(-1,2) = %v, salt redraws = %d", classes, redraws)
		})
	}
}

// Every single-bit change to a committed signature must be rejected.
func TestVerifyRejectsMutatedVectors(t *testing.T) {
	for _, set := range loadKAT(t) {
		if set.Name == "tiny" {
			continue // a 9-bit modulus has forgeries by chance
		}
		k := set.key(t)
		for i, v := range set.Vectors[:40] {
			digest := unhex(t, v.Digest)
			var sig Signature
			copy(sig.Salt[:], unhex(t, v.Salt))
			sig.Root = unhex(t, v.Root)
			if err := k.Verify(digest, &sig); err != nil {
				t.Fatalf("set %s vector %d rejected: %v", set.Name, i, err)
			}
			bad := sig
			bad.Root = bytes.Clone(sig.Root)
			bad.Root[(i*7)%len(bad.Root)] ^= 1 << (i % 8)
			if k.Verify(digest, &bad) == nil {
				t.Fatalf("set %s vector %d: mutated root accepted", set.Name, i)
			}
			bad = sig
			bad.Salt[i%SaltSize] ^= 1 << (i % 8)
			if k.Verify(digest, &bad) == nil {
				t.Fatalf("set %s vector %d: mutated salt accepted", set.Name, i)
			}
		}
	}
}

// faultyCopy returns a copy of k whose precomputed constants can be
// corrupted without touching the memoized test key.
func faultyCopy(k *PrivateKey) *PrivateKey {
	c := *k
	c.qInvP = new(big.Int).Set(k.qInvP)
	c.twoExpP = new(big.Int).Set(k.twoExpP)
	c.twoExpQ = new(big.Int).Set(k.twoExpQ)
	return &c
}

// A fault in the CRT constant makes every recombined root wrong modulo
// p only; releasing one would let gcd(r² − v, n) factor the key. Sign's
// final squaring check must turn each into an error.
func TestSignFaultyCRTNeverReleasesRoot(t *testing.T) {
	k := faultyCopy(testKey(t, 512))
	k.qInvP.Xor(k.qInvP, big.NewInt(1<<20))
	g := prng.NewSeeded([]byte("fault-crt"))
	for i := 0; i < 32; i++ {
		sig, err := k.Sign(g, g.Bytes(20))
		if err == nil {
			t.Fatalf("signature %d released under a faulty CRT constant: %x", i, sig.Root)
		}
	}
}

// A fault in a precomputed 2^((p+1)/4) only touches f = 2 signatures:
// those must fail, the f = 1 ones must still verify, and nothing that
// fails verification may ever be returned.
func TestSignFaultyTweakRootNeverReleasesRoot(t *testing.T) {
	for _, side := range []string{"p", "q"} {
		k := faultyCopy(testKey(t, 512))
		if side == "p" {
			k.twoExpP.Add(k.twoExpP, big.NewInt(1))
		} else {
			k.twoExpQ.Add(k.twoExpQ, big.NewInt(1))
		}
		g := prng.NewSeeded([]byte("fault-tweak-" + side))
		failed, ok := 0, 0
		for i := 0; i < 64; i++ {
			d := g.Bytes(20)
			sig, err := k.Sign(g, d)
			if err != nil {
				failed++
				continue
			}
			if err := k.Verify(d, sig); err != nil {
				t.Fatalf("side %s: released a root that does not verify", side)
			}
			if class := tweakClass(&k.PublicKey, d, sig); class >= 2 {
				t.Fatalf("side %s: f=2 signature survived a corrupt tweak root", side)
			}
			ok++
		}
		if failed == 0 || ok == 0 {
			t.Fatalf("side %s: %d failed, %d ok; want both f classes exercised", side, failed, ok)
		}
	}
}

// The plaintext can be any of the four roots of the ciphertext;
// Decrypt's lazy two-CRT walk must reach each of them.
func TestDecryptReachesAllFourRoots(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("four-roots"))
	var seen [4]int
	for i := 0; i < 128; i++ {
		msg := g.Bytes(16)
		ct, err := k.Encrypt(g, msg)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := k.Decrypt(ct)
		if err != nil || !bytes.Equal(pt, msg) {
			t.Fatalf("round %d: decrypt failed: %v", i, err)
		}
		// Find which (±rp, ±rq) combination the plaintext was.
		c := new(big.Int).SetBytes(ct)
		rp := new(big.Int).Exp(new(big.Int).Mod(c, k.P), k.expP, k.P)
		rq := new(big.Int).Exp(new(big.Int).Mod(c, k.Q), k.expQ, k.Q)
		for idx := 0; idx < 4; idx++ {
			a, b := rp, rq
			if idx&2 != 0 {
				a = new(big.Int).Sub(k.P, rp)
			}
			if idx&1 != 0 {
				b = new(big.Int).Sub(k.Q, rq)
			}
			if _, err := oaepDecode(k.crt(a, b).FillBytes(make([]byte, k.size()))); err == nil {
				seen[idx]++
			}
		}
	}
	for idx, n := range seen {
		if n == 0 {
			t.Errorf("root combination %d never carried the plaintext in 128 encryptions", idx)
		}
	}
}

// One agent key signs for every concurrent login: Sign and Decrypt
// must treat the key's precomputed constants as read-only. Run under
// -race in CI.
func TestConcurrentSignDecryptSharedKey(t *testing.T) {
	k := testKey(t, 512)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := prng.NewSeeded([]byte{byte(w)})
			for i := 0; i < 16; i++ {
				d := g.Bytes(20)
				sig, err := k.Sign(g, d)
				if err != nil || k.Verify(d, sig) != nil {
					t.Errorf("worker %d: sign/verify failed: %v", w, err)
					return
				}
				ct, err := k.Encrypt(g, d[:8])
				if err != nil {
					t.Error(err)
					return
				}
				if pt, err := k.Decrypt(ct); err != nil || !bytes.Equal(pt, d[:8]) {
					t.Errorf("worker %d: decrypt failed: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
