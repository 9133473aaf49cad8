package blowfish

import (
	"crypto/sha1"
	"errors"
)

// DefaultCost is the eksblowfish work factor used by sfskey and the
// authserver. The paper's rule of thumb is that one password guess
// should cost almost a full second of CPU time on then-current
// hardware; the parameter can be raised as computers get faster.
const DefaultCost = 7

// magic is the constant bcrypt plaintext; 24 bytes = 3 Blowfish blocks.
var magic = []byte("OrpheanBeholderScryDoubt")

// PasswordHash applies the eksblowfish password transformation: an
// expensive salted key schedule followed by 64 ECB encryptions of a
// constant, yielding a 24-byte verifier-quality digest. Passwords
// longer than 72 bytes are pre-hashed with SHA-1.
func PasswordHash(cost uint, salt []byte, password []byte) ([]byte, error) {
	if len(password) == 0 {
		return nil, errors.New("blowfish: empty password")
	}
	if len(password) > 72 {
		h := sha1.Sum(password)
		password = h[:]
	}
	c, err := NewSalted(cost, salt, password)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(magic))
	copy(out, magic)
	for i := 0; i < 64; i++ {
		for j := 0; j < len(out); j += BlockSize {
			c.Encrypt(out[j:], out[j:])
		}
	}
	return out, nil
}

// PasswordKey derives a 20-byte symmetric key from a password with the
// same expensive transformation; sfskey uses it to encrypt private
// keys registered with the authserver (paper §2.4). The key is the
// SHA-1 of the 24-byte eksblowfish digest, domain-separated from the
// verifier so that a server holding the verifier cannot decrypt the
// private key without running the guessing attack the cost parameter
// makes slow.
func PasswordKey(cost uint, salt, password []byte) ([]byte, error) {
	d, err := PasswordHash(cost, salt, password)
	if err != nil {
		return nil, err
	}
	h := sha1.New()
	h.Write([]byte("SKey"))
	h.Write(d)
	return h.Sum(nil), nil
}
