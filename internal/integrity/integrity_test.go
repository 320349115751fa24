package integrity

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
)

func newStore(t *testing.T) *ProtectedStore {
	t.Helper()
	p, err := NewProtectedStore([]byte("chip-internal-key"), 128)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func line(fill byte) []byte {
	d := make([]byte, 128)
	for i := range d {
		d[i] = fill
	}
	return d
}

func TestNewVerifierValidation(t *testing.T) {
	if _, err := NewVerifier(nil, 128); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := NewVerifier([]byte("k"), 0); err == nil {
		t.Error("zero line size accepted")
	}
	v, err := NewVerifier([]byte("k"), 128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.MAC(0, 0, make([]byte, 64)); err == nil {
		t.Error("short line accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	p := newStore(t)
	data := line(0x42)
	if err := p.Write(0x1000, data); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	verified, failed := p.Stats()
	if verified != 1 || failed != 0 {
		t.Errorf("stats %d/%d", verified, failed)
	}
}

func TestReadMissingLine(t *testing.T) {
	p := newStore(t)
	if _, err := p.Read(0x9000); err == nil {
		t.Error("missing line should error")
	}
}

func TestSpoofingDetected(t *testing.T) {
	p := newStore(t)
	p.Write(0x1000, line(0x11))
	p.TamperSpoof(0x1000, line(0xEE))
	_, err := p.Read(0x1000)
	if !errors.Is(err, ErrTampered) {
		t.Errorf("spoofing not detected: %v", err)
	}
}

func TestSplicingDetected(t *testing.T) {
	// Both lines hold valid (ciphertext, MAC) pairs; swapping them must
	// still fail because the MAC binds the address.
	p := newStore(t)
	p.Write(0x1000, line(0x11))
	p.Write(0x2000, line(0x22))
	p.TamperSplice(0x1000, 0x2000)
	if _, err := p.Read(0x1000); !errors.Is(err, ErrTampered) {
		t.Errorf("splice at 0x1000 not detected: %v", err)
	}
	if _, err := p.Read(0x2000); !errors.Is(err, ErrTampered) {
		t.Errorf("splice at 0x2000 not detected: %v", err)
	}
}

func TestReplayDetected(t *testing.T) {
	// Snapshot an old balance, let the program overwrite it, replay the
	// snapshot: the sequence-number binding must reject it.
	p := newStore(t)
	p.Write(0x1000, line(100)) // balance = 100
	oldCT, oldMAC := p.Snapshot(0x1000)
	p.Write(0x1000, line(5)) // balance = 5
	p.TamperReplay(0x1000, oldCT, oldMAC)
	if _, err := p.Read(0x1000); !errors.Is(err, ErrTampered) {
		t.Errorf("replay not detected: %v", err)
	}
}

func TestReplayWithoutSeqWouldPass(t *testing.T) {
	// Demonstrate *why* the sequence number matters: the replayed pair
	// verifies under its original sequence number.
	p := newStore(t)
	p.Write(0x1000, line(100))
	oldCT, oldMAC := p.Snapshot(0x1000)
	v, _ := NewVerifier([]byte("chip-internal-key"), 128)
	if err := v.Check(0x1000, 1, oldCT, oldMAC); err != nil {
		t.Errorf("stale pair should verify under its stale seq: %v", err)
	}
}

func TestFailedWriteLeavesLineReadable(t *testing.T) {
	// A rejected write must not advance the trusted sequence number, or
	// the still-stored line would stop verifying.
	p := newStore(t)
	if err := p.Write(0x1000, line(7)); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0x1000, make([]byte, 64)); err == nil {
		t.Fatal("wrong-length write accepted")
	}
	got, err := p.Read(0x1000)
	if err != nil {
		t.Fatalf("line unreadable after a failed write: %v", err)
	}
	if !bytes.Equal(got, line(7)) {
		t.Error("failed write changed the stored line")
	}
}

func TestSeqExhaustionBlocksReplay(t *testing.T) {
	// 65536 writes after the snapshot would wrap a 16-bit sequence number
	// back to the snapshot's value and make the stale pair verify again.
	// The store must refuse the wrapping writes and keep the last good line.
	p := newStore(t)
	if err := p.Write(0x1000, line(1)); err != nil {
		t.Fatal(err)
	}
	oldCT, oldMAC := p.Snapshot(0x1000)
	var refused int
	for i := 0; i < 1<<16; i++ {
		err := p.Write(0x1000, line(byte(i)))
		switch {
		case err == nil:
		case errors.Is(err, ErrSeqExhausted):
			refused++
		default:
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Writes 2..65535 fit the sequence space; the remaining two are refused.
	if refused != 2 {
		t.Errorf("%d writes refused, want 2", refused)
	}
	got, err := p.Read(0x1000)
	if err != nil {
		t.Fatalf("line unreadable after exhaustion: %v", err)
	}
	lastAccepted := 1<<16 - 3
	if want := line(byte(lastAccepted)); !bytes.Equal(got, want) {
		t.Errorf("line holds %#x..., want the last accepted write %#x...", got[0], want[0])
	}
	p.TamperReplay(0x1000, oldCT, oldMAC)
	if _, err := p.Read(0x1000); !errors.Is(err, ErrTampered) {
		t.Errorf("seq-1 snapshot replayed after 65536 writes: %v", err)
	}
}

func TestLegitimateRewritesKeepVerifying(t *testing.T) {
	p := newStore(t)
	for i := 0; i < 10; i++ {
		if err := p.Write(0x3000, line(byte(i))); err != nil {
			t.Fatal(err)
		}
		got, err := p.Read(0x3000)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("iteration %d: wrong data", i)
		}
	}
}

// TestMACBindsEverything: flipping any single input bit (data, address or
// seq) changes the MAC.
func TestMACBindsEverything(t *testing.T) {
	v, _ := NewVerifier([]byte("k2"), 128)
	base, _ := v.MAC(0x1000, 7, line(0x33))
	d := line(0x33)
	d[64] ^= 1
	m1, _ := v.MAC(0x1000, 7, d)
	m2, _ := v.MAC(0x1080, 7, line(0x33))
	m3, _ := v.MAC(0x1000, 8, line(0x33))
	for i, m := range [][MACSize]byte{m1, m2, m3} {
		if m == base {
			t.Errorf("variant %d did not change the MAC", i)
		}
	}
}

// TestRandomTamperAlwaysDetected is a property test: any random byte flip
// in a stored line is caught.
func TestRandomTamperAlwaysDetected(t *testing.T) {
	p := newStore(t)
	p.Write(0x4000, line(0x5A))
	f := func(pos uint8, flip byte) bool {
		if flip == 0 {
			flip = 1
		}
		ct, _ := p.Snapshot(0x4000)
		ct[int(pos)%128] ^= flip
		p.TamperSpoof(0x4000, ct)
		_, err := p.Read(0x4000)
		// Restore for the next iteration.
		orig := line(0x5A)
		p.TamperSpoof(0x4000, orig)
		return errors.Is(err, ErrTampered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHMACSHA256KnownAnswer pins the MAC primitive to RFC 4231 test case 1
// and the Verifier's MAC to its definition: HMAC-SHA-256 under the chip key
// over ct || le64(lineVA) || le16(seq), truncated to MACSize bytes.
func TestHMACSHA256KnownAnswer(t *testing.T) {
	m := hmac.New(sha256.New, bytes.Repeat([]byte{0x0b}, 20))
	m.Write([]byte("Hi There"))
	if got, want := hex.EncodeToString(m.Sum(nil)), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"; got != want {
		t.Fatalf("HMAC-SHA-256 RFC 4231 case 1 = %s, want %s", got, want)
	}
	key := []byte("chip-internal-key")
	v, err := NewVerifier(key, 128)
	if err != nil {
		t.Fatal(err)
	}
	ct := line(0x3c)
	got, err := v.MAC(0x1234_5680, 0xbeef, ct)
	if err != nil {
		t.Fatal(err)
	}
	m = hmac.New(sha256.New, key)
	m.Write(ct)
	m.Write([]byte{0x80, 0x56, 0x34, 0x12, 0, 0, 0, 0, 0xef, 0xbe})
	if want := m.Sum(nil)[:MACSize]; !bytes.Equal(got[:], want) {
		t.Errorf("Verifier.MAC = %x, want %x", got, want)
	}
}

// TestVerifierMACAllocs locks in the allocation-free MAC path.
func TestVerifierMACAllocs(t *testing.T) {
	v, err := NewVerifier([]byte("chip-internal-key"), 128)
	if err != nil {
		t.Fatal(err)
	}
	ct := line(0x3c)
	var seq uint16
	if n := testing.AllocsPerRun(100, func() {
		seq++
		if _, err := v.MAC(0x1000, seq, ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Verifier.MAC: %v allocs/op, want 0", n)
	}
}
