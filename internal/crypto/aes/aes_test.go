package aes

import (
	"bytes"
	stdaes "crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFIPS197Vectors checks the appendix C known-answer vectors.
func TestFIPS197Vectors(t *testing.T) {
	cases := []struct{ key, plain, cipher string }{
		{
			"000102030405060708090a0b0c0d0e0f",
			"00112233445566778899aabbccddeeff",
			"69c4e0d86a7b0430d8cdb78070b4c55a",
		},
		{
			"000102030405060708090a0b0c0d0e0f1011121314151617",
			"00112233445566778899aabbccddeeff",
			"dda97ca4864cdfe06eaf70a0ec0d7191",
		},
		{
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			"00112233445566778899aabbccddeeff",
			"8ea2b7ca516745bfeafc49904b496089",
		},
	}
	for i, tc := range cases {
		key, _ := hex.DecodeString(tc.key)
		pt, _ := hex.DecodeString(tc.plain)
		want, _ := hex.DecodeString(tc.cipher)
		c, err := NewCipher(key)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := make([]byte, 16)
		c.Encrypt(got, pt)
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: encrypt = %x, want %x", i, got, want)
		}
		back := make([]byte, 16)
		c.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Errorf("case %d: decrypt round trip = %x, want %x", i, back, pt)
		}
	}
}

func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 8, 15, 17, 33} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("key size %d: want error", n)
		}
	}
}

// TestAgainstStdlib checks that the shim hands its key to crypto/aes
// unchanged at every key size: each random key yields the cipher crypto/aes
// builds.
func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, ks := range []int{16, 24, 32} {
		for i := 0; i < 200; i++ {
			key := make([]byte, ks)
			pt := make([]byte, 16)
			rng.Read(key)
			rng.Read(pt)
			ours, err := NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := stdaes.NewCipher(key)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, 16)
			got := make([]byte, 16)
			ref.Encrypt(want, pt)
			ours.Encrypt(got, pt)
			if !bytes.Equal(got, want) {
				t.Fatalf("ks=%d iter=%d key=%x pt=%x: ours=%x stdlib=%x", ks, i, key, pt, got, want)
			}
			back := make([]byte, 16)
			ours.Decrypt(back, got)
			if !bytes.Equal(back, pt) {
				t.Fatalf("ks=%d iter=%d: decrypt mismatch", ks, i)
			}
		}
	}
}

// TestEncryptDecryptInverse is a property-based round-trip check.
func TestEncryptDecryptInverse(t *testing.T) {
	f := func(key [16]byte, block [16]byte) bool {
		c, err := NewCipher(key[:])
		if err != nil {
			return false
		}
		ct := make([]byte, 16)
		pt := make([]byte, 16)
		c.Encrypt(ct, block[:])
		c.Decrypt(pt, ct)
		return bytes.Equal(pt, block[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestInPlaceEncrypt(t *testing.T) {
	key := make([]byte, 16)
	c, _ := NewCipher(key)
	buf := []byte("0123456789abcdef")
	want := make([]byte, 16)
	c.Encrypt(want, buf)
	c.Encrypt(buf, buf)
	if !bytes.Equal(buf, want) {
		t.Error("in-place encryption differs from out-of-place")
	}
}

func TestShortBufferPanics(t *testing.T) {
	c, _ := NewCipher(make([]byte, 16))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on short block")
		}
	}()
	c.Encrypt(make([]byte, 16), make([]byte, 8))
}
