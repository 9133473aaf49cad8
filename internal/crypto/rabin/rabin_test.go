package rabin

import (
	"bytes"
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/crypto/prng"
)

// testKey caches one key per size so the suite stays fast.
var (
	keyMu   sync.Mutex
	keyMemo = map[int]*PrivateKey{}
)

func testKey(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	keyMu.Lock()
	defer keyMu.Unlock()
	if k, ok := keyMemo[bits]; ok {
		return k
	}
	g := prng.NewSeeded([]byte("rabin-test-key"))
	k, err := GenerateKey(g, bits)
	if err != nil {
		t.Fatal(err)
	}
	keyMemo[bits] = k
	return k
}

func TestKeyStructure(t *testing.T) {
	k := testKey(t, 512)
	eight := big.NewInt(8)
	if r := new(big.Int).Mod(k.P, eight).Int64(); r != 3 {
		t.Errorf("p mod 8 = %d, want 3", r)
	}
	if r := new(big.Int).Mod(k.Q, eight).Int64(); r != 7 {
		t.Errorf("q mod 8 = %d, want 7", r)
	}
	if r := new(big.Int).Mod(k.N, eight).Int64(); r != 5 {
		t.Errorf("n mod 8 = %d, want 5", r)
	}
	if got := new(big.Int).Mul(k.P, k.Q); got.Cmp(k.N) != 0 {
		t.Error("n != p*q")
	}
	if k.N.BitLen() < 510 {
		t.Errorf("modulus only %d bits", k.N.BitLen())
	}
	if !k.P.ProbablyPrime(20) || !k.Q.ProbablyPrime(20) {
		t.Error("factors not prime")
	}
}

func TestKeySizeFloor(t *testing.T) {
	g := prng.NewSeeded([]byte("x"))
	if _, err := GenerateKey(g, 128); err == nil {
		t.Fatal("128-bit key accepted")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("enc"))
	for _, msg := range [][]byte{
		[]byte(""),
		[]byte("k"),
		[]byte("session key halves!!"),
		bytes.Repeat([]byte{0xff}, k.MaxPlaintext()),
	} {
		ct, err := k.Encrypt(g, msg)
		if err != nil {
			t.Fatalf("encrypt %d bytes: %v", len(msg), err)
		}
		pt, err := k.Decrypt(ct)
		if err != nil {
			t.Fatalf("decrypt %d bytes: %v", len(msg), err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("round trip failed for %d bytes", len(msg))
		}
	}
}

func TestEncryptionRandomized(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("rand"))
	a, _ := k.Encrypt(g, []byte("same message"))
	b, _ := k.Encrypt(g, []byte("same message"))
	if bytes.Equal(a, b) {
		t.Fatal("two encryptions of the same message are identical")
	}
}

func TestMessageTooLong(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("x"))
	if _, err := k.Encrypt(g, make([]byte, k.MaxPlaintext()+1)); err != ErrMessageTooLong {
		t.Fatalf("got %v, want ErrMessageTooLong", err)
	}
}

func TestCiphertextTampering(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("tamper"))
	ct, err := k.Encrypt(g, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{0, len(ct) / 2, len(ct) - 1} {
		bad := bytes.Clone(ct)
		bad[pos] ^= 0x40
		if _, err := k.Decrypt(bad); err == nil {
			t.Fatalf("tampered ciphertext (byte %d) decrypted", pos)
		}
	}
	if _, err := k.Decrypt(ct[:len(ct)-1]); err == nil {
		t.Fatal("short ciphertext accepted")
	}
	huge := new(big.Int).Add(k.N, big.NewInt(1)).FillBytes(make([]byte, k.size()))
	if _, err := k.Decrypt(huge); err == nil {
		t.Fatal("out-of-range ciphertext accepted")
	}
}

func TestSignVerify(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("sig"))
	digest := []byte("12345678901234567890")
	sig, err := k.Sign(g, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(digest, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

func TestSignatureRejections(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("rej"))
	digest := []byte("digest-digest-digest")
	sig, err := k.Sign(g, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Verify([]byte("digest-digest-digesU"), sig); err == nil {
		t.Fatal("signature verified over different digest")
	}
	bad := *sig
	bad.Root = bytes.Clone(sig.Root)
	bad.Root[5] ^= 1
	if err := k.Verify(digest, &bad); err == nil {
		t.Fatal("corrupted root accepted")
	}
	bad2 := *sig
	bad2.Salt[0] ^= 1
	if err := k.Verify(digest, &bad2); err == nil {
		t.Fatal("corrupted salt accepted")
	}
	if err := k.Verify(digest, nil); err == nil {
		t.Fatal("nil signature accepted")
	}
	short := *sig
	short.Root = sig.Root[:len(sig.Root)-1]
	if err := k.Verify(digest, &short); err == nil {
		t.Fatal("short root accepted")
	}
}

func TestSignaturesDiffer(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("diff"))
	d := []byte("same digest")
	s1, _ := k.Sign(g, d)
	s2, _ := k.Sign(g, d)
	if bytes.Equal(s1.Root, s2.Root) {
		t.Fatal("probabilistic signatures identical")
	}
	if err := k.Verify(d, s1); err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(d, s2); err != nil {
		t.Fatal(err)
	}
}

func TestWrongKeyRejects(t *testing.T) {
	k1 := testKey(t, 512)
	g := prng.NewSeeded([]byte("other-key"))
	k2, err := GenerateKey(g, 512)
	if err != nil {
		t.Fatal(err)
	}
	d := []byte("cross-key digest")
	sig, _ := k1.Sign(g, d)
	if err := k2.Verify(d, sig); err == nil {
		t.Fatal("signature verified under wrong key")
	}
	ct, _ := k1.Encrypt(g, []byte("cross"))
	if _, err := k2.Decrypt(ct); err == nil {
		t.Fatal("ciphertext decrypted under wrong key")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	k := testKey(t, 512)
	b := k.PublicKey.Bytes()
	got, err := ParsePublicKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&k.PublicKey) {
		t.Fatal("round-tripped key differs")
	}
	// Deterministic: used as HostID input.
	if !bytes.Equal(b, k.PublicKey.Bytes()) {
		t.Fatal("key encoding not deterministic")
	}
	if _, err := ParsePublicKey([]byte("garbage")); err == nil {
		t.Fatal("garbage key parsed")
	}
	// Even modulus must be rejected.
	even := &PublicKey{N: new(big.Int).Lsh(big.NewInt(1), 300)}
	if _, err := ParsePublicKey(even.Bytes()); err == nil {
		t.Fatal("even modulus accepted")
	}
}

func TestSignMessageHelpers(t *testing.T) {
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("msg"))
	msg := []byte("an XDR structure, marshaled")
	sig, err := k.SignMessage(g, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.VerifyMessage(msg, sig); err != nil {
		t.Fatal(err)
	}
	if err := k.VerifyMessage(append(msg, 'x'), sig); err == nil {
		t.Fatal("modified message verified")
	}
}

func TestQuickEncryptDecrypt(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("quick"))
	f := func(msg []byte) bool {
		if len(msg) > k.MaxPlaintext() {
			msg = msg[:k.MaxPlaintext()]
		}
		ct, err := k.Encrypt(g, msg)
		if err != nil {
			return false
		}
		pt, err := k.Decrypt(ct)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSignVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	k := testKey(t, 512)
	g := prng.NewSeeded([]byte("quick-sig"))
	f := func(digest []byte) bool {
		sig, err := k.Sign(g, digest)
		if err != nil {
			return false
		}
		return k.Verify(digest, sig) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The 1024-bit benchmarks report throughput over the modulus size
// (one block per operation) so bench-smoke output lines up with the
// arc4 and sha1mac MB/s figures.
func BenchmarkEncrypt1024(b *testing.B) {
	k := testKey(b, 1024)
	g := prng.NewSeeded([]byte("bench"))
	msg := []byte("a 20-byte key half!!")
	b.SetBytes(int64(k.size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Encrypt(g, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt1024(b *testing.B) {
	k := testKey(b, 1024)
	g := prng.NewSeeded([]byte("bench"))
	ct, _ := k.Encrypt(g, []byte("a 20-byte key half!!"))
	b.SetBytes(int64(k.size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSign1024(b *testing.B) {
	k := testKey(b, 1024)
	g := prng.NewSeeded([]byte("bench"))
	d := []byte("12345678901234567890")
	b.SetBytes(int64(k.size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Sign(g, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify1024(b *testing.B) {
	k := testKey(b, 1024)
	g := prng.NewSeeded([]byte("bench"))
	d := []byte("12345678901234567890")
	sig, _ := k.Sign(g, d)
	b.SetBytes(int64(k.size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Verify(d, sig); err != nil {
			b.Fatal(err)
		}
	}
}
