package des

import (
	"bytes"
	stddes "crypto/des"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTripleInvalidKey(t *testing.T) {
	for _, n := range []int{0, 8, 16, 23, 25} {
		if _, err := NewTripleCipher(make([]byte, n)); err == nil {
			t.Errorf("key size %d accepted", n)
		}
	}
}

// TestTripleAgainstStdlib checks that the shim hands its key to crypto/des
// unchanged: every random key yields the 3DES cipher crypto/des builds.
func TestTripleAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		key := make([]byte, 24)
		pt := make([]byte, 8)
		rng.Read(key)
		rng.Read(pt)
		ours, err := NewTripleCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stddes.NewTripleDESCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 8)
		got := make([]byte, 8)
		ref.Encrypt(want, pt)
		ours.Encrypt(got, pt)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: ours=%x stdlib=%x", i, got, want)
		}
		back := make([]byte, 8)
		ours.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Fatalf("iter %d: decrypt mismatch", i)
		}
	}
}

// TestTripleDegeneratesToDES: with K1=K2=K3, 3DES-EDE equals single DES.
func TestTripleDegeneratesToDES(t *testing.T) {
	k := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	key := append(append(append([]byte{}, k...), k...), k...)
	triple, err := NewTripleCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewCipher(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 1, 0x0123456789ABCDEF, ^uint64(0)} {
		if encrypt(triple, v) != encrypt(single, v) {
			t.Errorf("EDE with equal keys != DES for %#x", v)
		}
	}
}

func TestTripleRoundTrip(t *testing.T) {
	f := func(key [24]byte, block uint64) bool {
		c, err := NewTripleCipher(key[:])
		if err != nil {
			return false
		}
		return decrypt(c, encrypt(c, block)) == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTripleBlockSize(t *testing.T) {
	c, _ := NewTripleCipher(make([]byte, 24))
	if c.BlockSize() != 8 {
		t.Error("block size")
	}
}
