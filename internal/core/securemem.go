package core

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math"
)

// BlockCipher is the pad/direct-encryption primitive. crypto/cipher.Block
// satisfies it, and internal/crypto/des and internal/crypto/aes return one.
// Encrypt and Decrypt must accept dst == src, as crypto/cipher.Block does.
type BlockCipher interface {
	BlockSize() int
	Encrypt(dst, src []byte)
	Decrypt(dst, src []byte)
}

// vaBits is the width of the protected virtual address space. Seed keeps
// the sequence number above it, so SecureMemory rejects lines that do not
// lie wholly below 2^vaBits.
const vaBits = 48

// Seed builds the per-block pad seed. Following Sections 3.4.1/3.4.2, the
// seed is derived from the virtual address of the cipher block (so
// neighbouring blocks get unrelated pads) and mutated by the line's
// sequence number on every write (so rewrites of the same location get
// fresh pads). Virtual addresses are < 2^48 (SecureMemory enforces it), so
// folding the 16-bit sequence number into the top bits keeps
// (line, seq, block) → seed unique.
func Seed(lineVA uint64, seq uint16, blockIdx, blockSize int) uint64 {
	return lineVA + uint64(blockIdx*blockSize) + uint64(seq)<<vaBits
}

// EncMode records how a line is currently represented in external memory.
type EncMode int

const (
	// ModePlain: not encrypted (shared libraries, program inputs —
	// Section 4.3).
	ModePlain EncMode = iota
	// ModeOTP: ciphertext = plaintext XOR E_K(seed) (Section 3.2).
	ModeOTP
	// ModeDirect: ciphertext = E_K(plaintext) per block, XOM-style.
	ModeDirect
)

// String names the mode.
func (m EncMode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeOTP:
		return "otp"
	case ModeDirect:
		return "direct"
	default:
		return "unknown"
	}
}

// memoryImage is the minimal functional backing store SecureMemory needs.
// internal/mem.Memory satisfies it.
type memoryImage interface {
	Read(addr uint64, dst []byte)
	Write(addr uint64, src []byte)
}

// SecureMemory is the functional (byte-accurate) view of protected external
// memory: it stores real ciphertext and reproduces the paper's encryption
// equations exactly. The timing schemes above model *when* these operations
// complete; SecureMemory models *what* the bytes are, so the examples and
// attack demos operate on genuine ciphertext.
//
// A SecureMemory is not safe for concurrent use: its sequence and mode
// tables are plain maps, and it generates pads in per-instance scratch
// blocks so that writes allocate nothing.
type SecureMemory struct {
	mem       memoryImage
	cipher    BlockCipher
	lineBytes int

	// seq holds the current sequence number per line VA — architecturally
	// this is the union of the SNC and the in-memory table; the functional
	// layer does not care where the number currently lives.
	seq map[uint64]uint16
	// mode tracks the current encryption mode per line VA.
	mode map[uint64]EncMode

	seed []byte // cipher input: the 8-byte seed, zero-padded to one block
	pad  []byte // one pad block, E_K(seed)
	line []byte // one line of ciphertext on its way to memory
}

// NewSecureMemory wraps a memory image with line-granular encryption.
func NewSecureMemory(m memoryImage, cipher BlockCipher, lineBytes int) (*SecureMemory, error) {
	bs := cipher.BlockSize()
	if bs < 8 {
		return nil, fmt.Errorf("core: cipher block %d bytes cannot hold an 8-byte seed", bs)
	}
	if lineBytes <= 0 || lineBytes%bs != 0 {
		return nil, fmt.Errorf("core: line size %d not a multiple of cipher block %d", lineBytes, bs)
	}
	return &SecureMemory{
		mem:       m,
		cipher:    cipher,
		lineBytes: lineBytes,
		seq:       make(map[uint64]uint16),
		mode:      make(map[uint64]EncMode),
		seed:      make([]byte, bs),
		pad:       make([]byte, bs),
		line:      make([]byte, lineBytes),
	}, nil
}

// LineBytes returns the configured line size.
func (s *SecureMemory) LineBytes() int { return s.lineBytes }

// Mode returns the current encryption mode of the line containing va.
func (s *SecureMemory) Mode(va uint64) EncMode { return s.mode[s.lineAddr(va)] }

// Seq returns the current sequence number of the line containing va.
func (s *SecureMemory) Seq(va uint64) uint16 { return s.seq[s.lineAddr(va)] }

func (s *SecureMemory) lineAddr(va uint64) uint64 {
	return va &^ uint64(s.lineBytes-1)
}

// xorPad sets dst = src XOR the one-time pad of (lineVA, seq). Block i of
// the pad is E_K(seed_i): the little-endian seed fills the first 8 bytes
// of the cipher input and wider blocks are zero-padded (the unused bytes
// are constant, uniqueness comes from the seed). dst may be src.
func (s *SecureMemory) xorPad(dst, src []byte, lineVA uint64, seq uint16) {
	bs := len(s.pad)
	for off := 0; off < s.lineBytes; off += bs {
		binary.LittleEndian.PutUint64(s.seed, Seed(lineVA, seq, off/bs, bs))
		s.cipher.Encrypt(s.pad, s.seed)
		subtle.XORBytes(dst[off:off+bs], src[off:off+bs], s.pad)
	}
}

func (s *SecureMemory) checkLine(va uint64, data []byte) error {
	if va%uint64(s.lineBytes) != 0 {
		return fmt.Errorf("core: address %#x not line aligned", va)
	}
	if va > 1<<vaBits-uint64(s.lineBytes) {
		return fmt.Errorf("core: line %#x outside the %d-bit virtual address space", va, vaBits)
	}
	if data != nil && len(data) != s.lineBytes {
		return fmt.Errorf("core: data length %d != line size %d", len(data), s.lineBytes)
	}
	return nil
}

// WriteLineOTP encrypts data with a fresh one-time pad (incrementing the
// line's sequence number, paper equations 4-6) and stores the ciphertext.
//
// A line's 16-bit sequence space holds 65535 OTP writes. Wrapping to 0
// would reuse a pad, so once a line's sequence number reaches 65535 every
// further WriteLineOTP stores it direct-encrypted (WriteLineDirect) instead:
// the line stays in ModeDirect with its sequence number pinned at 65535,
// the functional counterpart of the timing model's re-encryption on
// sequence wrap.
func (s *SecureMemory) WriteLineOTP(lineVA uint64, data []byte) error {
	if err := s.checkLine(lineVA, data); err != nil {
		return err
	}
	seq := s.seq[lineVA]
	if seq == math.MaxUint16 {
		s.writeDirect(lineVA, data)
		return nil
	}
	seq++
	s.seq[lineVA] = seq
	s.xorPad(s.line, data, lineVA, seq)
	s.mem.Write(lineVA, s.line)
	s.mode[lineVA] = ModeOTP
	return nil
}

// WriteLineDirect encrypts data block-by-block with the cipher itself
// (XOM-style ECB) and stores the ciphertext. Used for uncovered lines under
// the no-replacement policy and for spilled sequence numbers.
func (s *SecureMemory) WriteLineDirect(lineVA uint64, data []byte) error {
	if err := s.checkLine(lineVA, data); err != nil {
		return err
	}
	s.writeDirect(lineVA, data)
	return nil
}

func (s *SecureMemory) writeDirect(lineVA uint64, data []byte) {
	bs := len(s.pad)
	for off := 0; off < s.lineBytes; off += bs {
		s.cipher.Encrypt(s.line[off:off+bs], data[off:off+bs])
	}
	s.mem.Write(lineVA, s.line)
	s.mode[lineVA] = ModeDirect
}

// WriteLinePlain stores data unencrypted (shared library code, program
// inputs — Section 4.3).
func (s *SecureMemory) WriteLinePlain(lineVA uint64, data []byte) error {
	if err := s.checkLine(lineVA, data); err != nil {
		return err
	}
	s.mem.Write(lineVA, data)
	s.mode[lineVA] = ModePlain
	return nil
}

// InstallOTPImage stores a vendor-prepared OTP ciphertext for an
// instruction region: the vendor encrypted it against virtual addresses
// with sequence number 0 (Section 3.4.1). data is plaintext; it is
// encrypted here as the vendor tool would.
func (s *SecureMemory) InstallOTPImage(baseVA uint64, data []byte) error {
	if baseVA%uint64(s.lineBytes) != 0 {
		return fmt.Errorf("core: base %#x not line aligned", baseVA)
	}
	if len(data)%s.lineBytes != 0 {
		return fmt.Errorf("core: image length %d not line multiple", len(data))
	}
	if len(data) > 0 {
		if err := s.checkLine(baseVA, nil); err != nil {
			return err
		}
		if err := s.checkLine(baseVA+uint64(len(data)-s.lineBytes), nil); err != nil {
			return err
		}
	}
	for off := 0; off < len(data); off += s.lineBytes {
		lineVA := baseVA + uint64(off)
		s.xorPad(s.line, data[off:off+s.lineBytes], lineVA, 0)
		s.mem.Write(lineVA, s.line)
		s.mode[lineVA] = ModeOTP
		s.seq[lineVA] = 0
	}
	return nil
}

// AdoptOTPLine marks an externally installed ciphertext line (e.g. a
// vendor-encrypted image copied into memory by an untrusted loader) as
// OTP-encrypted with sequence number 0, without touching the stored bytes.
func (s *SecureMemory) AdoptOTPLine(lineVA uint64) error {
	if err := s.checkLine(lineVA, nil); err != nil {
		return err
	}
	s.mode[lineVA] = ModeOTP
	s.seq[lineVA] = 0
	return nil
}

// ReadLine fetches and decrypts the line at lineVA according to its current
// mode. The returned slice is freshly allocated and owned by the caller.
func (s *SecureMemory) ReadLine(lineVA uint64) ([]byte, error) {
	raw, err := s.RawLine(lineVA)
	if err != nil {
		return nil, err
	}
	switch s.mode[lineVA] {
	case ModePlain:
	case ModeOTP:
		s.xorPad(raw, raw, lineVA, s.seq[lineVA])
	case ModeDirect:
		bs := len(s.pad)
		for off := 0; off < s.lineBytes; off += bs {
			s.cipher.Decrypt(raw[off:off+bs], raw[off:off+bs])
		}
	default:
		return nil, fmt.Errorf("core: line %#x has unknown mode", lineVA)
	}
	return raw, nil
}

// RawLine returns the stored (cipher)text without decryption — the
// adversary's view of the bus/memory. The returned slice is freshly
// allocated and owned by the caller.
func (s *SecureMemory) RawLine(lineVA uint64) ([]byte, error) {
	if err := s.checkLine(lineVA, nil); err != nil {
		return nil, err
	}
	raw := make([]byte, s.lineBytes)
	s.mem.Read(lineVA, raw)
	return raw, nil
}
