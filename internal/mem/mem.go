// Package mem models the off-chip memory system: a fixed-latency DRAM, a
// shared memory bus with contention, a write buffer, and a functional
// (byte-accurate) physical memory image.
//
// The paper assumes a typical 100-cycle memory access latency (Section 5)
// and a write buffer that "steals idle bus cycles efficiently" (Section 3.4)
// so that writes are off the critical path. Figure 9 measures the extra bus
// traffic induced by SNC replacements, so the bus tracks per-source
// transaction counts.
package mem

import (
	"fmt"
	"sort"
)

// DRAMConfig describes main memory timing.
type DRAMConfig struct {
	// AccessLatency is the cycles from request issue to first data back
	// (the paper's 100).
	AccessLatency uint64
	// BusCyclesPerLine is how long one line transfer occupies the bus.
	BusCyclesPerLine uint64
}

// DefaultDRAMConfig is the paper's memory: 100-cycle latency; a 128-byte
// line at 16 bytes/cycle occupies the bus for 8 cycles.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{AccessLatency: 100, BusCyclesPerLine: 8}
}

// Validate reports configuration errors.
func (c DRAMConfig) Validate() error {
	if c.AccessLatency == 0 {
		return fmt.Errorf("mem: access latency must be positive")
	}
	if c.BusCyclesPerLine == 0 {
		return fmt.Errorf("mem: bus cycles per line must be positive")
	}
	return nil
}

// TrafficSource labels bus transactions for the Figure 9 accounting.
type TrafficSource int

const (
	// SrcLineFill is a demand line read from DRAM.
	SrcLineFill TrafficSource = iota
	// SrcWriteback is a dirty-line write to DRAM.
	SrcWriteback
	// SrcSeqNumFetch is an SNC-miss read of a sequence number from DRAM.
	SrcSeqNumFetch
	// SrcSeqNumSpill is an SNC replacement writing a sequence number out.
	SrcSeqNumSpill
	// SrcMACFetch is an integrity-scheme read of a line's MAC from the
	// off-chip MAC table.
	SrcMACFetch
	// SrcMACUpdate is an integrity-scheme write refreshing a line's MAC
	// after a writeback.
	SrcMACUpdate
	numSources
)

// String names the traffic source.
func (s TrafficSource) String() string {
	switch s {
	case SrcLineFill:
		return "linefill"
	case SrcWriteback:
		return "writeback"
	case SrcSeqNumFetch:
		return "seqnum-fetch"
	case SrcSeqNumSpill:
		return "seqnum-spill"
	case SrcMACFetch:
		return "mac-fetch"
	case SrcMACUpdate:
		return "mac-update"
	default:
		return "unknown"
	}
}

// Bus models a single shared memory bus. Demand reads reserve slots in
// request order; writebacks opportunistically use idle slots.
type Bus struct {
	cfg      DRAMConfig
	nextFree uint64
	// writeFree is when the last write transfer ends: writes serialize
	// against each other even though they never reserve the bus against
	// future reads.
	writeFree uint64
	// Transactions counts bus uses by source.
	Transactions [numSources]uint64
	// BusyCycles is total bus occupancy.
	BusyCycles uint64
}

// NewBus builds the bus model.
func NewBus(cfg DRAMConfig) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{cfg: cfg}
}

// Read performs a demand line read issued at `now`, returning the cycle the
// full line is available on chip: bus grant + DRAM latency + transfer.
func (b *Bus) Read(now uint64, src TrafficSource) (done uint64) {
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	b.nextFree = start + b.cfg.BusCyclesPerLine
	b.BusyCycles += b.cfg.BusCyclesPerLine
	b.Transactions[src]++
	return start + b.cfg.AccessLatency + b.cfg.BusCyclesPerLine
}

// Write performs a line write issued at `now` (from the write buffer),
// returning when the transfer completes. Following the paper's write-buffer
// model ("write buffers ... steal idle bus cycles efficiently", Section
// 3.4), writes yield to demand reads: they wait for any in-progress read
// transfer but do not reserve the bus against future reads. They do occupy
// the single bus while transferring, so writes serialize against each other
// — a burst of writebacks issued at the same cycle drains one line-time
// apart, not for free in parallel.
func (b *Bus) Write(now uint64, src TrafficSource) (done uint64) {
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}
	if b.writeFree > start {
		start = b.writeFree
	}
	b.writeFree = start + b.cfg.BusCyclesPerLine
	b.BusyCycles += b.cfg.BusCyclesPerLine
	b.Transactions[src]++
	return start + b.cfg.BusCyclesPerLine
}

// TotalTransactions sums all sources.
func (b *Bus) TotalTransactions() uint64 {
	var t uint64
	for _, v := range b.Transactions {
		t += v
	}
	return t
}

// DemandTransactions returns fills + writebacks (the paper's "L2 cache
// memory traffic" denominator for Figure 9).
func (b *Bus) DemandTransactions() uint64 {
	return b.Transactions[SrcLineFill] + b.Transactions[SrcWriteback]
}

// SNCTransactions returns the SNC-induced extra traffic (Figure 9
// numerator).
func (b *Bus) SNCTransactions() uint64 {
	return b.Transactions[SrcSeqNumFetch] + b.Transactions[SrcSeqNumSpill]
}

// MACTransactions returns the integrity-induced extra traffic (MAC fetches
// plus MAC table updates).
func (b *Bus) MACTransactions() uint64 {
	return b.Transactions[SrcMACFetch] + b.Transactions[SrcMACUpdate]
}

// Config returns the bus/DRAM configuration.
func (b *Bus) Config() DRAMConfig { return b.cfg }

// ResetStats clears counters (keeps timing state).
func (b *Bus) ResetStats() {
	b.Transactions = [numSources]uint64{}
	b.BusyCycles = 0
}

// BusSnapshot is a copy of the bus's mutable state (timing reservations and
// per-source transaction counters), taken with Snapshot and reinstated with
// Restore.
type BusSnapshot struct {
	nextFree     uint64
	writeFree    uint64
	transactions [numSources]uint64
	busyCycles   uint64
}

// Snapshot captures the bus's full mutable state.
func (b *Bus) Snapshot() BusSnapshot {
	return BusSnapshot{
		nextFree:     b.nextFree,
		writeFree:    b.writeFree,
		transactions: b.Transactions,
		busyCycles:   b.BusyCycles,
	}
}

// Restore reinstates a snapshot taken from a bus with the same configuration.
func (b *Bus) Restore(s BusSnapshot) {
	b.nextFree = s.nextFree
	b.writeFree = s.writeFree
	b.Transactions = s.transactions
	b.BusyCycles = s.busyCycles
}

// WriteBuffer models the deferred-write queue between L2 and memory
// (paper Figure 2/4). Evicted lines wait here while being encrypted; entries
// drain to the bus in FIFO order. The CPU only stalls when the buffer is
// full.
type WriteBuffer struct {
	depth   int
	pending []uint64 // completion times of in-flight drains, sorted

	// Stats.
	Inserted   uint64
	FullStalls uint64
}

// NewWriteBuffer creates a buffer with the given capacity.
func NewWriteBuffer(depth int) *WriteBuffer {
	if depth <= 0 {
		panic("mem: write buffer depth must be positive")
	}
	return &WriteBuffer{depth: depth}
}

// Insert queues a writeback at time `now` whose data becomes eligible to
// drain at `ready` (e.g. after encryption finishes). It returns the time the
// CPU may proceed: `now` unless the buffer was full, in which case the CPU
// waits for the oldest entry to drain.
func (w *WriteBuffer) Insert(now, ready uint64, drain func(uint64) uint64) (cpuFree uint64) {
	w.Inserted++
	// Retire entries that have drained by now. Compact in place rather than
	// re-slicing so the backing array's capacity is stable and the sorted
	// insert below stops allocating once the buffer has warmed up.
	i := 0
	for i < len(w.pending) && w.pending[i] <= now {
		i++
	}
	if i > 0 {
		n := copy(w.pending, w.pending[i:])
		w.pending = w.pending[:n]
	}
	cpuFree = now
	if len(w.pending) >= w.depth {
		w.FullStalls++
		cpuFree = w.pending[0]
		n := copy(w.pending, w.pending[1:])
		w.pending = w.pending[:n]
	}
	done := drain(maxU64(cpuFree, ready))
	// Insert keeping sorted order (drains can complete out of order when
	// ready times differ).
	pos := sort.Search(len(w.pending), func(j int) bool { return w.pending[j] > done }) //secsim:allowalloc non-escaping search closure; inlined by the compiler
	w.pending = append(w.pending, 0)                                                    //secsim:allowalloc in-place compaction keeps capacity stable; append stops allocating once warm
	copy(w.pending[pos+1:], w.pending[pos:])
	w.pending[pos] = done
	return cpuFree
}

// Occupancy returns the number of entries still draining at time now.
func (w *WriteBuffer) Occupancy(now uint64) int {
	n := 0
	for _, t := range w.pending {
		if t > now {
			n++
		}
	}
	return n
}

// Depth returns the configured capacity.
func (w *WriteBuffer) Depth() int { return w.depth }

// WriteBufferSnapshot is a deep copy of the buffer's mutable state (pending
// drain completion times and stats), taken with Snapshot and reinstated with
// Restore. It shares nothing with the buffer it came from.
type WriteBufferSnapshot struct {
	pending    []uint64
	inserted   uint64
	fullStalls uint64
}

// Snapshot captures the buffer's full mutable state.
func (w *WriteBuffer) Snapshot() WriteBufferSnapshot {
	s := WriteBufferSnapshot{
		pending:    make([]uint64, len(w.pending)),
		inserted:   w.Inserted,
		fullStalls: w.FullStalls,
	}
	copy(s.pending, w.pending)
	return s
}

// Restore reinstates a snapshot taken from a buffer with the same depth. The
// existing backing array is reused when large enough, so a restored buffer
// keeps its steady-state (allocation-free) capacity.
func (w *WriteBuffer) Restore(s WriteBufferSnapshot) {
	w.pending = append(w.pending[:0], s.pending...)
	w.Inserted = s.inserted
	w.FullStalls = s.fullStalls
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Memory page geometry: 4KB pages gathered into directory chunks of 1024
// pages, so one chunk spans 4MB of address space.
const (
	pageBits  = 12
	chunkBits = 10
	chunkMask = (1 << chunkBits) - 1
)

// memChunk is the second level of the page directory: a dense array of
// page frames covering one aligned 4MB span.
type memChunk struct {
	pages [1 << chunkBits][]byte
}

// Memory is the functional byte-accurate physical memory image, backed by a
// two-level page directory: a sparse chunk map on top (touched only when an
// access crosses into a new 4MB span) and dense page arrays below, fronted
// by a last-page cache so the common same-page access is two compares and
// an array load. The secure schemes store real ciphertext here so that
// tampering experiments operate on actual bytes.
type Memory struct {
	chunks map[uint64]*memChunk

	// Last-chunk and last-page caches. lastPage == nil / lastChunk == nil
	// mean "no cached entry" (never a valid cached value, since pages and
	// chunks are non-nil once allocated).
	lastCN    uint64
	lastChunk *memChunk
	lastPN    uint64
	lastPage  []byte

	allocated int
}

// NewMemory creates an empty sparse memory with 4KB pages.
func NewMemory() *Memory {
	return &Memory{chunks: make(map[uint64]*memChunk)}
}

func (m *Memory) page(addr uint64, create bool) ([]byte, uint64) {
	off := addr & ((1 << pageBits) - 1)
	pn := addr >> pageBits
	if pn == m.lastPN && m.lastPage != nil {
		return m.lastPage, off
	}
	cn := pn >> chunkBits
	ch := m.lastChunk
	if ch == nil || cn != m.lastCN {
		ch = m.chunks[cn]
		if ch == nil {
			if !create {
				return nil, off
			}
			ch = new(memChunk)
			m.chunks[cn] = ch
		}
		m.lastCN, m.lastChunk = cn, ch
	}
	p := ch.pages[pn&chunkMask]
	if p == nil {
		if !create {
			return nil, off
		}
		p = make([]byte, 1<<pageBits)
		ch.pages[pn&chunkMask] = p
		m.allocated++
	}
	m.lastPN, m.lastPage = pn, p
	return p, off
}

// Read copies len(dst) bytes starting at addr into dst. Unwritten memory
// reads as zero.
func (m *Memory) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		p, off := m.page(addr, false)
		n := int(uint64(1)<<pageBits - off)
		if n > len(dst) {
			n = len(dst)
		}
		if p == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write stores src at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		p, off := m.page(addr, true)
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadU64 reads a little-endian 64-bit word.
func (m *Memory) ReadU64(addr uint64) uint64 {
	var b [8]byte
	m.Read(addr, b[:])
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// WriteU64 writes a little-endian 64-bit word.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	b := [8]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)}
	m.Write(addr, b[:])
}

// ReadU32 reads a little-endian 32-bit word.
func (m *Memory) ReadU32(addr uint64) uint32 {
	var b [4]byte
	m.Read(addr, b[:])
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// WriteU32 writes a little-endian 32-bit word.
func (m *Memory) WriteU32(addr uint64, v uint32) {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	m.Write(addr, b[:])
}

// PagesAllocated returns the number of backing pages (test/diagnostic aid).
func (m *Memory) PagesAllocated() int { return m.allocated }
