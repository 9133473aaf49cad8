package blowfish

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
	"time"
)

// Eric Young's standard Blowfish test vectors.
var ecbVectors = []struct{ key, plain, cipher string }{
	{"0000000000000000", "0000000000000000", "4ef997456198dd78"},
	{"ffffffffffffffff", "ffffffffffffffff", "51866fd5b85ecb8a"},
	{"3000000000000000", "1000000000000001", "7d856f9a613063f2"},
	{"1111111111111111", "1111111111111111", "2466dd878b963c9d"},
	{"0123456789abcdef", "1111111111111111", "61f9c3802281b096"},
	{"fedcba9876543210", "0123456789abcdef", "0aceab0fc6a0a28d"},
	{"7ca110454a1a6e57", "01a1d6d039776742", "59c68245eb05282b"},
	{"0131d9619dc1376e", "5cd54ca83def57da", "b1b8cc0b250f09a0"},
}

func TestECBVectors(t *testing.T) {
	for _, v := range ecbVectors {
		key, _ := hex.DecodeString(v.key)
		plain, _ := hex.DecodeString(v.plain)
		want, _ := hex.DecodeString(v.cipher)
		c, err := New(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		c.Encrypt(got, plain)
		if !bytes.Equal(got, want) {
			t.Errorf("key %s plain %s: got %x, want %x", v.key, v.plain, got, want)
		}
		back := make([]byte, 8)
		c.Decrypt(back, got)
		if !bytes.Equal(back, plain) {
			t.Errorf("key %s: decrypt failed", v.key)
		}
	}
}

func TestVariableKeyLengths(t *testing.T) {
	// Eric Young's "set_key" test: encrypt the same plaintext with
	// prefixes of a 24-byte key. Spot-check a few entries.
	fullKey, _ := hex.DecodeString("f0e1d2c3b4a5968778695a4b3c2d1e0f0011223344556677")
	plain, _ := hex.DecodeString("fedcba9876543210")
	wants := map[int]string{
		1:  "f9ad597c49db005e",
		8:  "e87a244e2cc85e82",
		16: "93142887ee3be15c",
		24: "05044b62fa52d080",
	}
	for n, wantHex := range wants {
		want, _ := hex.DecodeString(wantHex)
		c, err := New(fullKey[:n])
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		c.Encrypt(got, plain)
		if !bytes.Equal(got, want) {
			t.Errorf("key len %d: got %x, want %x", n, got, want)
		}
	}
}

func TestKeySizeLimits(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil key accepted")
	}
	if _, err := New(make([]byte, 73)); err == nil {
		t.Fatal("73-byte key accepted")
	}
	if _, err := New(make([]byte, 72)); err != nil {
		t.Fatal("72-byte key rejected")
	}
}

func TestCBCRoundTrip(t *testing.T) {
	c, err := New([]byte("twenty-byte-sfs-key!"))
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("filehandle!!"), 4) // 48 bytes
	ct, err := c.EncryptCBC(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct, msg) {
		t.Fatal("CBC ciphertext equals plaintext")
	}
	pt, err := c.DecryptCBC(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("CBC round trip failed")
	}
	// Identical first blocks but differing second blocks must chain.
	msg2 := bytes.Clone(msg)
	msg2[9]++
	ct2, _ := c.EncryptCBC(msg2)
	if bytes.Equal(ct[16:24], ct2[16:24]) {
		t.Fatal("CBC chaining not effective")
	}
}

func TestCBCBadLength(t *testing.T) {
	c, _ := New([]byte("k"))
	if _, err := c.EncryptCBC(make([]byte, 7)); err == nil {
		t.Fatal("unaligned CBC input accepted")
	}
	if _, err := c.DecryptCBC(make([]byte, 9)); err == nil {
		t.Fatal("unaligned CBC input accepted")
	}
}

func TestQuickEncryptDecrypt(t *testing.T) {
	c, _ := New([]byte("quickcheck-key"))
	f := func(blk [8]byte) bool {
		ct := make([]byte, 8)
		c.Encrypt(ct, blk[:])
		pt := make([]byte, 8)
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, blk[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEksblowfishSaltMatters(t *testing.T) {
	salt1 := bytes.Repeat([]byte{1}, 16)
	salt2 := bytes.Repeat([]byte{2}, 16)
	h1, err := PasswordHash(4, salt1, []byte("hunter2"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := PasswordHash(4, salt2, []byte("hunter2"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(h1, h2) {
		t.Fatal("salt does not affect hash")
	}
}

func TestEksblowfishCostMatters(t *testing.T) {
	salt := bytes.Repeat([]byte{7}, 16)
	h4, _ := PasswordHash(4, salt, []byte("pw"))
	h5, _ := PasswordHash(5, salt, []byte("pw"))
	if bytes.Equal(h4, h5) {
		t.Fatal("cost does not affect hash")
	}
	if other, _ := PasswordHash(4, salt, []byte("pq")); bytes.Equal(h4, other) {
		t.Fatal("password does not affect hash")
	}
}

func TestEksblowfishCostScales(t *testing.T) {
	salt := bytes.Repeat([]byte{7}, 16)
	start := time.Now()
	if _, err := PasswordHash(4, salt, []byte("pw")); err != nil {
		t.Fatal(err)
	}
	t4 := time.Since(start)
	start = time.Now()
	if _, err := PasswordHash(7, salt, []byte("pw")); err != nil {
		t.Fatal(err)
	}
	t7 := time.Since(start)
	// 2^3 = 8x more work; allow generous slack for timer noise.
	if t7 < 3*t4 {
		t.Errorf("cost 7 (%v) not meaningfully slower than cost 4 (%v)", t7, t4)
	}
}

func TestPasswordKeyDiffersFromHash(t *testing.T) {
	salt := bytes.Repeat([]byte{3}, 16)
	h, _ := PasswordHash(4, salt, []byte("pw"))
	k, err := PasswordKey(4, salt, []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if len(k) != 20 {
		t.Fatalf("key length %d, want 20", len(k))
	}
	if bytes.Contains(h, k) || bytes.Contains(k, h[:len(k)]) {
		t.Fatal("password key derivable from verifier bytes")
	}
}

func TestLongPasswordPrehashed(t *testing.T) {
	salt := bytes.Repeat([]byte{3}, 16)
	long := bytes.Repeat([]byte("x"), 100)
	if _, err := PasswordHash(4, salt, long); err != nil {
		t.Fatal(err)
	}
}

func TestSaltedParamValidation(t *testing.T) {
	if _, err := NewSalted(4, make([]byte, 15), []byte("k")); err == nil {
		t.Fatal("15-byte salt accepted")
	}
	if _, err := NewSalted(32, make([]byte, 16), []byte("k")); err == nil {
		t.Fatal("cost 32 accepted")
	}
	if _, err := PasswordHash(4, make([]byte, 16), nil); err == nil {
		t.Fatal("empty password accepted")
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c, _ := New(make([]byte, 20))
	blk := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		c.Encrypt(blk, blk)
	}
}

func BenchmarkEksblowfishCost7(b *testing.B) {
	salt := bytes.Repeat([]byte{7}, 16)
	for i := 0; i < b.N; i++ {
		if _, err := PasswordHash(7, salt, []byte("benchmark password")); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSaltedScheduleIsTwoToTheCostRounds pins the work factor where it
// is exact: NewSalted's state is the salted expansion followed by
// exactly 2^cost (key, salt) re-expansion rounds — one round fewer or
// more is a different cipher. Timing tests can only say "slower"; this
// says how much work a unit of cost buys.
func TestSaltedScheduleIsTwoToTheCostRounds(t *testing.T) {
	salt := bytes.Repeat([]byte{7}, 16)
	key := []byte("storm-pw")
	schedule := func(rounds int) *Cipher {
		c := initialState()
		c.expandKey(salt, key)
		for i := 0; i < rounds; i++ {
			c.expandKey(nil, key)
			c.expandKey(nil, salt)
		}
		return c
	}
	for cost := uint(0); cost <= 6; cost++ {
		got, err := NewSalted(cost, salt, key)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 1 << cost
		if *got != *schedule(rounds) {
			t.Errorf("cost %d: state is not %d re-expansion rounds", cost, rounds)
		}
		if *got == *schedule(rounds - 1) || *got == *schedule(rounds + 1) {
			t.Errorf("cost %d: state also matches %d±1 rounds", cost, rounds)
		}
	}
}
