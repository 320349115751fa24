// Package integrity implements memory integrity verification for the
// protected memory: a keyed MAC per line binding (contents, address,
// sequence number), as XOM-class architectures attach to every memory
// block (paper Section 2.2).
//
// The paper explicitly scopes integrity out of its performance work (it
// cites Gassend et al.'s hash trees and concentrates on
// encryption/decryption latency), but the threat model it inherits names
// three attacks this package demonstrates and detects:
//
//   - spoofing: the adversary overwrites a line with chosen bytes;
//   - splicing: the adversary swaps two valid ciphertext lines;
//   - replay: the adversary restores a stale (line, MAC) pair.
//
// Spoofing and splicing are caught by the address-bound MAC alone; replay
// additionally needs the on-chip sequence number (which the SNC conveniently
// already maintains) so a stale MAC no longer verifies.
package integrity

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
)

// MACSize is the stored MAC width in bytes (truncated SHA-256 HMAC; the
// paper's XOM reference uses a per-block hash of similar width).
const MACSize = 16

// Verifier computes and checks per-line MACs under a chip-internal key.
//
// A Verifier is not safe for concurrent use: it keeps one keyed HMAC state
// and its input/output scratch per instance, so MAC allocates nothing.
type Verifier struct {
	lineBytes int
	mac       hash.Hash // HMAC-SHA-256 under the chip key, Reset per line
	meta      [10]byte  // lineVA and seq, the MAC input after the ciphertext
	sum       [sha256.Size]byte

	// Verified / Failed count check outcomes.
	Verified uint64
	Failed   uint64
}

// ErrTampered is returned when a line fails verification.
var ErrTampered = errors.New("integrity: line MAC mismatch (spoofed, spliced or replayed)")

// ErrSeqExhausted is returned by ProtectedStore.Write once a line's 16-bit
// sequence number has reached its maximum. Wrapping it back to zero would
// make every (ciphertext, MAC) pair captured since the last wrap verify
// again, so the store refuses further writes to that line instead.
var ErrSeqExhausted = errors.New("integrity: line sequence number exhausted")

// NewVerifier creates a verifier for the given line size.
func NewVerifier(key []byte, lineBytes int) (*Verifier, error) {
	if lineBytes <= 0 {
		return nil, fmt.Errorf("integrity: line size must be positive")
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("integrity: empty key")
	}
	return &Verifier{mac: hmac.New(sha256.New, key), lineBytes: lineBytes}, nil
}

// MAC computes the stored MAC for a line's ciphertext at lineVA with the
// given sequence number: HMAC-SHA-256(ct || le64(lineVA) || le16(seq)),
// truncated to MACSize bytes.
func (v *Verifier) MAC(lineVA uint64, seq uint16, ct []byte) ([MACSize]byte, error) {
	var out [MACSize]byte
	if len(ct) != v.lineBytes {
		return out, fmt.Errorf("integrity: line length %d != %d", len(ct), v.lineBytes)
	}
	binary.LittleEndian.PutUint64(v.meta[0:], lineVA)
	binary.LittleEndian.PutUint16(v.meta[8:], seq)
	v.mac.Reset()
	v.mac.Write(ct)
	v.mac.Write(v.meta[:])
	copy(out[:], v.mac.Sum(v.sum[:0]))
	return out, nil
}

// Check verifies a fetched line against its stored MAC.
func (v *Verifier) Check(lineVA uint64, seq uint16, ct []byte, mac [MACSize]byte) error {
	want, err := v.MAC(lineVA, seq, ct)
	if err != nil {
		return err
	}
	if !hmac.Equal(want[:], mac[:]) {
		v.Failed++
		return fmt.Errorf("%w (line %#x)", ErrTampered, lineVA)
	}
	v.Verified++
	return nil
}

// ProtectedStore couples ciphertext lines with their MACs — the functional
// model of DRAM plus the MAC side table, with an API for mounting the three
// classic attacks against it.
type ProtectedStore struct {
	verifier *Verifier
	lines    map[uint64][]byte
	macs     map[uint64][MACSize]byte
	seqs     map[uint64]uint16 // trusted on-chip sequence numbers
}

// NewProtectedStore creates an empty MAC-protected line store.
func NewProtectedStore(key []byte, lineBytes int) (*ProtectedStore, error) {
	v, err := NewVerifier(key, lineBytes)
	if err != nil {
		return nil, err
	}
	return &ProtectedStore{
		verifier: v,
		lines:    make(map[uint64][]byte),
		macs:     make(map[uint64][MACSize]byte),
		seqs:     make(map[uint64]uint16),
	}, nil
}

// Write stores a ciphertext line, advancing its trusted sequence number and
// recomputing the MAC (what the chip does on every writeback). A failed
// write leaves the line, its MAC and its sequence number untouched; once
// the sequence number reaches math.MaxUint16 every further write to the
// line fails with ErrSeqExhausted.
func (p *ProtectedStore) Write(lineVA uint64, ct []byte) error {
	seq := p.seqs[lineVA]
	if seq == math.MaxUint16 {
		return fmt.Errorf("%w (line %#x)", ErrSeqExhausted, lineVA)
	}
	seq++
	mac, err := p.verifier.MAC(lineVA, seq, ct)
	if err != nil {
		return err
	}
	p.seqs[lineVA] = seq
	// The store owns its line buffers (reads, snapshots and tampers all
	// copy), so a rewrite reuses the line's buffer.
	p.lines[lineVA] = append(p.lines[lineVA][:0], ct...)
	p.macs[lineVA] = mac
	return nil
}

// Read fetches and verifies a line (what the chip does on every fill).
func (p *ProtectedStore) Read(lineVA uint64) ([]byte, error) {
	ct, ok := p.lines[lineVA]
	if !ok {
		return nil, fmt.Errorf("integrity: no line at %#x", lineVA)
	}
	if err := p.verifier.Check(lineVA, p.seqs[lineVA], ct, p.macs[lineVA]); err != nil {
		return nil, err
	}
	return append([]byte(nil), ct...), nil
}

// Stats exposes the verifier counters.
func (p *ProtectedStore) Stats() (verified, failed uint64) {
	return p.verifier.Verified, p.verifier.Failed
}

// --- Adversary interface: mutations an attacker with DRAM access can do ---

// TamperSpoof overwrites line bytes in place (MAC left untouched).
func (p *ProtectedStore) TamperSpoof(lineVA uint64, newBytes []byte) {
	p.lines[lineVA] = append([]byte(nil), newBytes...)
}

// TamperSplice swaps the ciphertext (and MACs — the attacker can move both)
// of two lines.
func (p *ProtectedStore) TamperSplice(a, b uint64) {
	p.lines[a], p.lines[b] = p.lines[b], p.lines[a]
	p.macs[a], p.macs[b] = p.macs[b], p.macs[a]
}

// Snapshot captures a line's current (ciphertext, MAC) for a later replay.
func (p *ProtectedStore) Snapshot(lineVA uint64) (ct []byte, mac [MACSize]byte) {
	return append([]byte(nil), p.lines[lineVA]...), p.macs[lineVA]
}

// TamperReplay restores a previously captured (ciphertext, MAC) pair — both
// were valid once, so only the sequence-number binding can catch it.
func (p *ProtectedStore) TamperReplay(lineVA uint64, ct []byte, mac [MACSize]byte) {
	p.lines[lineVA] = append([]byte(nil), ct...)
	p.macs[lineVA] = mac
}
