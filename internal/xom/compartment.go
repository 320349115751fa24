package xom

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// This file models XOM's internal protection for multi-tasking (paper
// Section 2.3): each active task runs in a "compartment" with its own ID
// and key; register values and cache lines are tagged with the owning
// compartment, so no program (including a hijacked OS, compartment 0) can
// read another's data. On interrupts the OS sees only encrypted register
// state, sealed with a mutating counter so identical register files never
// produce identical ciphertexts (the same counter-mode idea as the memory
// path).

// CompartmentID identifies a protection domain. ID 0 is the (untrusted)
// operating system, the "null compartment".
type CompartmentID uint16

// OSCompartment is the null compartment the OS runs in.
const OSCompartment CompartmentID = 0

// ErrCompartmentViolation is returned when a task touches data tagged for
// another compartment; the paper's hardware raises an exception and halts
// the offender.
type ErrCompartmentViolation struct {
	Accessor, Owner CompartmentID
	Reg             int
}

func (e ErrCompartmentViolation) Error() string {
	return fmt.Sprintf("xom: compartment %d accessed register r%d owned by compartment %d",
		e.Accessor, e.Reg, e.Owner)
}

// taggedReg is a register value with its ownership tag.
type taggedReg struct {
	value uint32
	owner CompartmentID
}

// RegisterFile is the tagged architectural register file shared by all
// compartments (the hardware has one physical file; tags enforce
// isolation).
type RegisterFile struct {
	regs [32]taggedReg
}

// Write stores v into register r on behalf of compartment id, claiming the
// tag.
func (rf *RegisterFile) Write(id CompartmentID, r int, v uint32) {
	rf.regs[r] = taggedReg{value: v, owner: id}
}

// Read returns register r for compartment id, faulting if the tag belongs
// to a different compartment (reading your own or untagged-zero registers
// is fine).
func (rf *RegisterFile) Read(id CompartmentID, r int) (uint32, error) {
	tr := rf.regs[r]
	if tr.owner != id && tr.owner != OSCompartment {
		return 0, ErrCompartmentViolation{Accessor: id, Owner: tr.owner, Reg: r}
	}
	if tr.owner != id {
		// Untouched (OS-tagged zero) registers read as zero for tasks.
		return tr.value, nil
	}
	return tr.value, nil
}

// Owner returns the compartment tag of register r.
func (rf *RegisterFile) Owner(r int) CompartmentID { return rf.regs[r].owner }

// SealedRegs is the encrypted register state the OS holds across an
// interrupt: ciphertext plus a MAC binding it to the compartment and the
// save counter (so replaying an old save is detected).
type SealedRegs struct {
	Compartment CompartmentID
	Counter     uint64
	Cipher      [32]uint32
	MAC         [32]byte
}

// Manager tracks active compartments and their session keys.
type Manager struct {
	next CompartmentID
	keys map[CompartmentID][]byte
	ctr  map[CompartmentID]uint64
}

// NewManager creates a compartment manager; compartment 0 (the OS) always
// exists.
func NewManager() *Manager {
	return &Manager{
		next: 1,
		keys: map[CompartmentID][]byte{OSCompartment: nil},
		ctr:  map[CompartmentID]uint64{},
	}
}

// Enter creates a new compartment around a program key (the paper's
// "enter XOM mode" instruction): the hardware derives the session secrets
// from the unwrapped program key.
func (m *Manager) Enter(programKey []byte) CompartmentID {
	id := m.next
	m.next++
	key := append([]byte(nil), programKey...)
	m.keys[id] = key
	return id
}

// Exit destroys a compartment and its key material.
func (m *Manager) Exit(id CompartmentID) {
	delete(m.keys, id)
	delete(m.ctr, id)
}

// Active reports whether id exists.
func (m *Manager) Active(id CompartmentID) bool {
	_, ok := m.keys[id]
	return ok
}

// padWord derives the keystream word for register r at counter c — the
// mutating-seed construction of Section 3.4 applied to the register-save
// path ("a mutating value for varying the XOM ID is employed for
// encrypting register values on each interrupt event").
func padWord(key []byte, id CompartmentID, ctr uint64, r int) uint32 {
	var seed [16]byte
	binary.LittleEndian.PutUint16(seed[0:], uint16(id))
	binary.LittleEndian.PutUint64(seed[2:], ctr)
	binary.LittleEndian.PutUint32(seed[10:], uint32(r))
	h := hmacSHA256(key, seed[:])
	return binary.LittleEndian.Uint32(h[:4])
}

// hmacSHA256 returns HMAC-SHA-256(key, msg).
func hmacSHA256(key, msg []byte) (out [sha256.Size]byte) {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	m.Sum(out[:0])
	return out
}

// SealRegisters encrypts the register file slice owned by id for delivery
// to the OS on an interrupt. Each save uses a fresh counter: saving the
// same registers twice yields different ciphertexts.
func (m *Manager) SealRegisters(id CompartmentID, rf *RegisterFile) (SealedRegs, error) {
	key, ok := m.keys[id]
	if !ok || id == OSCompartment {
		return SealedRegs{}, fmt.Errorf("xom: cannot seal for compartment %d", id)
	}
	m.ctr[id]++
	ctr := m.ctr[id]
	out := SealedRegs{Compartment: id, Counter: ctr}
	var macInput [32*4 + 10]byte
	for r := 0; r < 32; r++ {
		v := rf.regs[r].value
		out.Cipher[r] = v ^ padWord(key, id, ctr, r)
		binary.LittleEndian.PutUint32(macInput[4*r:], out.Cipher[r])
	}
	binary.LittleEndian.PutUint16(macInput[128:], uint16(id))
	binary.LittleEndian.PutUint64(macInput[130:], ctr)
	out.MAC = hmacSHA256(key, macInput[:])
	// The OS now owns the physical registers.
	for r := 0; r < 32; r++ {
		rf.regs[r] = taggedReg{owner: OSCompartment}
	}
	return out, nil
}

// UnsealRegisters verifies and restores a sealed register save. It rejects
// tampered ciphertexts, MACs from other compartments, and replays of stale
// counters.
func (m *Manager) UnsealRegisters(sealed SealedRegs, rf *RegisterFile) error {
	key, ok := m.keys[sealed.Compartment]
	if !ok || sealed.Compartment == OSCompartment {
		return fmt.Errorf("xom: no such compartment %d", sealed.Compartment)
	}
	var macInput [32*4 + 10]byte
	for r := 0; r < 32; r++ {
		binary.LittleEndian.PutUint32(macInput[4*r:], sealed.Cipher[r])
	}
	binary.LittleEndian.PutUint16(macInput[128:], uint16(sealed.Compartment))
	binary.LittleEndian.PutUint64(macInput[130:], sealed.Counter)
	want := hmacSHA256(key, macInput[:])
	if want != sealed.MAC {
		return fmt.Errorf("xom: register save MAC mismatch (tampered or spliced)")
	}
	if sealed.Counter != m.ctr[sealed.Compartment] {
		return fmt.Errorf("xom: register save replay detected (counter %d, expected %d)",
			sealed.Counter, m.ctr[sealed.Compartment])
	}
	for r := 0; r < 32; r++ {
		rf.regs[r] = taggedReg{
			value: sealed.Cipher[r] ^ padWord(key, sealed.Compartment, sealed.Counter, r),
			owner: sealed.Compartment,
		}
	}
	return nil
}
