package core

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"math"
	"testing"

	"secureproc/internal/mem"
)

var ciphers = []struct {
	name   string
	cipher func(testing.TB) BlockCipher
}{{"des", desCipher}, {"aes", aesCipher}}

// TestSecureMemoryRejectsVAOutsideSeedSpace is the regression test for pad
// reuse from out-of-range addresses: Seed folds the sequence number into
// bits 48 and up, so a line at 2^48 would share line 0's seq-1 pad.
func TestSecureMemoryRejectsVAOutsideSeedSpace(t *testing.T) {
	if Seed(1<<48, 0, 0, 8) != Seed(0, 1, 0, 8) {
		t.Fatal("premise: seeds above 2^48 alias lower lines at higher seq")
	}
	sm := newSecureMem(t, desCipher(t))
	top := uint64(1<<48 - 128) // the last line below 2^48
	if err := sm.WriteLineOTP(top, line(1)); err != nil {
		t.Fatalf("last in-range line rejected: %v", err)
	}
	for _, va := range []uint64{1 << 48, 1<<48 + 128, 1 << 63, math.MaxUint64 &^ 127} {
		_, readErr := sm.ReadLine(va)
		_, rawErr := sm.RawLine(va)
		for _, c := range []struct {
			op  string
			err error
		}{
			{"WriteLineOTP", sm.WriteLineOTP(va, line(1))},
			{"WriteLineDirect", sm.WriteLineDirect(va, line(1))},
			{"WriteLinePlain", sm.WriteLinePlain(va, line(1))},
			{"AdoptOTPLine", sm.AdoptOTPLine(va)},
			{"InstallOTPImage", sm.InstallOTPImage(va, line(1))},
			{"ReadLine", readErr},
			{"RawLine", rawErr},
		} {
			if c.err == nil {
				t.Errorf("%s(%#x) accepted", c.op, va)
			}
		}
	}
	// An image whose last line crosses 2^48 is refused as a whole.
	img := append(line(2), line(3)...)
	if err := sm.InstallOTPImage(top, img); err == nil {
		t.Error("image crossing 2^48 accepted")
	}
	if sm.Seq(top) != 1 || sm.Mode(top) != ModeOTP {
		t.Error("refused image modified its first line")
	}
}

// TestSecureMemorySeqExhaustionNeverReusesPad is the regression test for
// pad reuse on sequence wrap: 65537 writes to one line must never store
// two ciphertexts with the same ciphertext XOR plaintext.
func TestSecureMemorySeqExhaustionNeverReusesPad(t *testing.T) {
	for _, tc := range ciphers {
		t.Run(tc.name, func(t *testing.T) {
			sm := newSecureMem(t, tc.cipher(t))
			const va = 0x1000
			seen := make(map[[sha256.Size]byte]int)
			pt := make([]byte, 128)
			for w := 1; w <= math.MaxUint16+2; w++ {
				binary.LittleEndian.PutUint32(pt, uint32(w))
				if err := sm.WriteLineOTP(va, pt); err != nil {
					t.Fatal(err)
				}
				ct, err := sm.RawLine(va)
				if err != nil {
					t.Fatal(err)
				}
				subtle.XORBytes(ct, ct, pt)
				k := sha256.Sum256(ct)
				if prev, dup := seen[k]; dup {
					t.Fatalf("write %d reuses the pad of write %d", w, prev)
				}
				seen[k] = w
			}
			if sm.Mode(va) != ModeDirect || sm.Seq(va) != math.MaxUint16 {
				t.Errorf("after exhaustion: mode %v seq %d, want direct at %d", sm.Mode(va), sm.Seq(va), math.MaxUint16)
			}
			got, err := sm.ReadLine(va)
			if err != nil || !bytes.Equal(got, pt) {
				t.Errorf("read after exhaustion = %x, %v; want the last write", got[:8], err)
			}
		})
	}
}

// TestSecureMemoryAllocs locks in the allocation-free pad path: a
// steady-state OTP rewrite allocates nothing and a read allocates only the
// slice it returns.
func TestSecureMemoryAllocs(t *testing.T) {
	for _, tc := range ciphers {
		t.Run(tc.name, func(t *testing.T) {
			sm := newSecureMem(t, tc.cipher(t))
			data := line(0x5a)
			if err := sm.WriteLineOTP(0x1000, data); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() {
				if err := sm.WriteLineOTP(0x1000, data); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("WriteLineOTP: %v allocs/op, want 0", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := sm.ReadLine(0x1000); err != nil {
					t.Fatal(err)
				}
			}); n != 1 {
				t.Errorf("ReadLine: %v allocs/op, want 1 (the returned line)", n)
			}
		})
	}
}

// FuzzSecureMemory drives random sequences of OTP, direct and plain writes
// and reads over a few lines with both ciphers: every read must return the
// last plaintext written to its line. Each op is three input bytes:
// opcode, line index, fill byte. The seed corpus is committed under
// testdata/fuzz/FuzzSecureMemory; CI runs it time-boxed:
//
//	go test ./internal/core -run '^$' -fuzz '^FuzzSecureMemory$' -fuzztime=20s
func FuzzSecureMemory(f *testing.F) {
	des, aes := desCipher(f), aesCipher(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		const lineBytes, lines, base, maxOps = 128, 4, 0x8000, 64
		if len(ops) > 3*maxOps {
			ops = ops[:3*maxOps] // long inputs add time, not new paths
		}
		for _, c := range []BlockCipher{des, aes} {
			sm, err := NewSecureMemory(mem.NewMemory(), c, lineBytes)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[uint64][]byte)
			for i := 0; i+2 < len(ops); i += 3 {
				va := base + uint64(ops[i+1]%lines)*lineBytes
				data := bytes.Repeat([]byte{ops[i+2]}, lineBytes)
				data[0] ^= byte(i)
				switch ops[i] % 6 {
				case 0:
					err = sm.WriteLineOTP(va, data)
				case 1:
					err = sm.WriteLineDirect(va, data)
				case 2:
					err = sm.WriteLinePlain(va, data)
				case 3:
					got, err := sm.ReadLine(va)
					if err != nil {
						t.Fatal(err)
					}
					if w, ok := want[va]; ok && !bytes.Equal(got, w) {
						t.Fatalf("op %d: read %#x = %x, want %x", i/3, va, got[:8], w[:8])
					}
					continue
				case 4:
					err = sm.InstallOTPImage(va, data)
				default:
					// Rewrite the same line twice so sequence numbers climb.
					if err = sm.WriteLineOTP(va, data); err == nil {
						err = sm.WriteLineOTP(va, data)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				want[va] = data
			}
		}
	})
}
