package des

import (
	"crypto/cipher"
	stddes "crypto/des"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// fips46KAT are the classic known-answer vectors for DES.
var fips46KAT = []struct {
	key, plain, cipher uint64
}{
	// The canonical "Ronald Rivest" chain start and other published vectors.
	{0x0101010101010101, 0x8000000000000000, 0x95F8A5E5DD31D900},
	{0x0101010101010101, 0x4000000000000000, 0xDD7F121CA5015619},
	{0x0101010101010101, 0x2000000000000000, 0x2E8653104F3834EA},
	{0x8001010101010101, 0x0000000000000000, 0x95A8D72813DAA94D},
	{0x133457799BBCDFF1, 0x0123456789ABCDEF, 0x85E813540F0AB405},
	{0x0E329232EA6D0D73, 0x8787878787878787, 0x0000000000000000},
}

// encrypt and decrypt run one block held as a big-endian integer.
func encrypt(c cipher.Block, v uint64) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	c.Encrypt(b[:], b[:])
	return binary.BigEndian.Uint64(b[:])
}

func decrypt(c cipher.Block, v uint64) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	c.Decrypt(b[:], b[:])
	return binary.BigEndian.Uint64(b[:])
}

func TestKnownAnswerVectors(t *testing.T) {
	for i, v := range fips46KAT {
		var key, pt [8]byte
		binary.BigEndian.PutUint64(key[:], v.key)
		binary.BigEndian.PutUint64(pt[:], v.plain)
		c, err := NewCipher(key[:])
		if err != nil {
			t.Fatalf("vector %d: NewCipher: %v", i, err)
		}
		got := encrypt(c, v.plain)
		if got != v.cipher {
			t.Errorf("vector %d: Encrypt(%016x) = %016x, want %016x", i, v.plain, got, v.cipher)
		}
		if back := decrypt(c, got); back != v.plain {
			t.Errorf("vector %d: Decrypt round trip = %016x, want %016x", i, back, v.plain)
		}
	}
}

func TestInvalidKeySize(t *testing.T) {
	for _, n := range []int{0, 1, 7, 9, 16} {
		if _, err := NewCipher(make([]byte, n)); err == nil {
			t.Errorf("NewCipher with %d-byte key: want error, got nil", n)
		}
	}
}

// TestAgainstStdlib checks that the shim hands its key to crypto/des
// unchanged: every random key yields the cipher crypto/des builds.
func TestAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		key := make([]byte, 8)
		pt := make([]byte, 8)
		rng.Read(key)
		rng.Read(pt)
		ours, err := NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := stddes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 8)
		got := make([]byte, 8)
		ref.Encrypt(want, pt)
		ours.Encrypt(got, pt)
		if string(got) != string(want) {
			t.Fatalf("iter %d: key=%x pt=%x: ours=%x stdlib=%x", i, key, pt, got, want)
		}
		back := make([]byte, 8)
		ours.Decrypt(back, got)
		if string(back) != string(pt) {
			t.Fatalf("iter %d: decrypt mismatch: got %x want %x", i, back, pt)
		}
	}
}

// TestEncryptDecryptInverse is a property-based check that Decrypt inverts
// Encrypt for arbitrary keys and blocks.
func TestEncryptDecryptInverse(t *testing.T) {
	f := func(key, block uint64) bool {
		var kb [8]byte
		binary.BigEndian.PutUint64(kb[:], key)
		c, err := NewCipher(kb[:])
		if err != nil {
			return false
		}
		return decrypt(c, encrypt(c, block)) == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestComplementationProperty verifies the DES complementation property
// E_k(p) = x  =>  E_~k(~p) = ~x, a strong structural check of the whole
// round pipeline.
func TestComplementationProperty(t *testing.T) {
	f := func(key, block uint64) bool {
		var kb, nkb [8]byte
		binary.BigEndian.PutUint64(kb[:], key)
		binary.BigEndian.PutUint64(nkb[:], ^key)
		c1, err1 := NewCipher(kb[:])
		c2, err2 := NewCipher(nkb[:])
		if err1 != nil || err2 != nil {
			return false
		}
		return encrypt(c2, ^block) == ^encrypt(c1, block)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestParityBitsIgnored verifies that flipping any parity (lsb of each key
// byte) bit leaves the key schedule unchanged.
func TestParityBitsIgnored(t *testing.T) {
	base := []byte{0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1}
	c0, err := NewCipher(base)
	if err != nil {
		t.Fatal(err)
	}
	want := encrypt(c0, 0x0123456789ABCDEF)
	for i := 0; i < 8; i++ {
		k := append([]byte(nil), base...)
		k[i] ^= 1
		c, err := NewCipher(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := encrypt(c, 0x0123456789ABCDEF); got != want {
			t.Errorf("parity flip in byte %d changed ciphertext: %016x vs %016x", i, got, want)
		}
	}
}

// TestAvalanche checks that flipping one plaintext bit changes roughly half
// the ciphertext bits on average (loose bounds: 20..44 of 64).
func TestAvalanche(t *testing.T) {
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var total, n int
	for i := 0; i < 200; i++ {
		p := rng.Uint64()
		bit := uint(rng.Intn(64))
		d := encrypt(c, p) ^ encrypt(c, p^(1<<bit))
		total += bits.OnesCount64(d)
		n++
	}
	avg := float64(total) / float64(n)
	if avg < 20 || avg > 44 {
		t.Errorf("avalanche average %.1f bits out of plausible range [20,44]", avg)
	}
}

func TestBlockSizeAccessor(t *testing.T) {
	c, err := NewCipher(make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockSize() != 8 {
		t.Errorf("BlockSize() = %d, want 8", c.BlockSize())
	}
}

func TestShortBufferPanics(t *testing.T) {
	c, _ := NewCipher(make([]byte, 8))
	for _, tc := range []struct{ dst, src int }{{8, 4}, {4, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dst=%d src=%d: expected panic", tc.dst, tc.src)
				}
			}()
			c.Encrypt(make([]byte, tc.dst), make([]byte, tc.src))
		}()
	}
}
