// Package cache implements a set-associative cache model with LRU
// replacement, write-back/write-allocate semantics, and virtual-address tag
// storage for L2 lines.
//
// The paper's hierarchy (Section 5): 32KB 4-way split L1 I/D caches and a
// 256KB 4-way unified L2 with 128-byte lines. Section 4 additionally
// requires the L2 to remember each line's virtual address so that the
// sequence-number cache can be indexed by VA on writebacks (physical
// addresses may change across context switches); this model stores that VA
// alongside the tag.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	// Ways is the associativity. Ways == 0 means fully associative.
	Ways int
	// HitLatency in cycles (informational; the CPU model decides how much
	// of it is exposed).
	HitLatency uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: size and line must be positive", c.Name)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache %s: size %d not a multiple of line %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	ways := c.Ways
	if ways == 0 {
		ways = lines
	}
	if lines%ways != 0 {
		return fmt.Errorf("cache %s: %d lines not divisible by %d ways", c.Name, lines, ways)
	}
	sets := lines / ways
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// lineMeta holds the per-line state that is not needed by the hit scan.
type lineMeta struct {
	va    uint64 // virtual line address kept for SNC indexing (paper §4)
	used  uint64 // LRU timestamp
	dirty bool
}

// Cache is a set-associative cache. It tracks tags and dirty state only; the
// simulated data contents live in the functional memory image.
//
// Storage is struct-of-arrays: the hit scan walks a dense tag array (one
// 8-byte word per way, set i owning words [i*ways, (i+1)*ways)) while the
// VA/LRU/dirty metadata lives in a parallel array touched only on hits and
// fills. A tag word encodes validity in its low bit — (tag<<1)|1 when valid,
// 0 when not — so the scan is a single compare per way with no way for an
// invalid line's stale tag to alias a real one.
type Cache struct {
	cfg      Config
	tags     []uint64
	meta     []lineMeta
	ways     int
	setShift uint
	setMask  uint64
	tick     uint64

	// dirtyScratch backs InvalidateAll's result so steady-state context
	// switches stop allocating.
	dirtyScratch [][2]uint64

	// Statistics.
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// New builds a cache from cfg, panicking on invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	ways := cfg.Ways
	if ways == 0 {
		ways = lines
	}
	sets := lines / ways
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, lines),
		meta:     make([]lineMeta, lines),
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

func (c *Cache) setIndex(addr uint64) uint64 {
	return (addr >> c.setShift) & c.setMask
}

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// Evicted is true when the fill displaced a valid line.
	Evicted bool
	// WritebackVA/WritebackAddr describe the displaced dirty line (valid
	// only when WritebackNeeded).
	WritebackNeeded bool
	WritebackAddr   uint64
	WritebackVA     uint64
}

// Access performs a read (write=false) or write (write=true) of addr with
// write-allocate + write-back semantics, filling on miss. va is the virtual
// line address recorded with the line (pass addr when VA==PA).
func (c *Cache) Access(addr, va uint64, write bool) Result {
	c.Accesses++
	c.tick++
	base := int(c.setIndex(addr)) * c.ways
	tags := c.tags[base : base+c.ways]
	want := addr>>c.setShift<<1 | 1
	for i := range tags {
		if tags[i] == want {
			c.Hits++
			m := &c.meta[base+i]
			m.used = c.tick
			if write {
				m.dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.Misses++
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range tags {
		if tags[i] == 0 {
			victim = i
			break
		}
		if c.meta[base+i].used < c.meta[base+victim].used {
			victim = i
		}
	}
	res := Result{}
	if tags[victim] != 0 {
		res.Evicted = true
		vm := &c.meta[base+victim]
		if vm.dirty {
			c.Writebacks++
			res.WritebackNeeded = true
			res.WritebackAddr = tags[victim] >> 1 << c.setShift
			res.WritebackVA = vm.va
		}
	}
	tags[victim] = want
	c.meta[base+victim] = lineMeta{va: va &^ uint64(c.cfg.LineBytes-1), used: c.tick, dirty: write}
	return res
}

// Probe reports whether addr is present without touching LRU state or stats.
func (c *Cache) Probe(addr uint64) bool {
	base := int(c.setIndex(addr)) * c.ways
	tags := c.tags[base : base+c.ways]
	want := addr>>c.setShift<<1 | 1
	for i := range tags {
		if tags[i] == want {
			return true
		}
	}
	return false
}

// InvalidateAll clears the cache (used at program/compartment switches),
// returning the dirty lines as (physical line address, VA) pairs so callers
// can write them back. The flushed dirty lines count as writebacks. The
// returned slice is a scratch buffer owned by the cache, valid only until
// the next InvalidateAll call.
func (c *Cache) InvalidateAll() (dirty [][2]uint64) {
	dirty = c.dirtyScratch[:0]
	for i := range c.tags {
		m := &c.meta[i]
		if c.tags[i] != 0 && m.dirty {
			c.Writebacks++
			dirty = append(dirty, [2]uint64{c.tags[i] >> 1 << c.setShift, m.va}) //secsim:allowalloc scratch buffer reuse; amortized zero, gated by sim AllocsPerRun tests
		}
		c.tags[i] = 0
		m.dirty = false
	}
	c.dirtyScratch = dirty
	return dirty
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// ResetStats clears counters but keeps cache contents (used after warmup).
func (c *Cache) ResetStats() {
	c.Accesses, c.Hits, c.Misses, c.Writebacks = 0, 0, 0, 0
}

// Snapshot is an opaque deep copy of the cache's mutable state — tag array,
// per-line metadata (VA, LRU timestamp, dirty bit), LRU tick, and the stat
// counters. It shares nothing with the cache it came from, so one snapshot
// can seed any number of forked runs.
type Snapshot struct {
	tags []uint64
	meta []lineMeta
	tick uint64

	accesses   uint64
	hits       uint64
	misses     uint64
	writebacks uint64
}

// Snapshot captures the cache's full mutable state.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{
		tags:       make([]uint64, len(c.tags)),
		meta:       make([]lineMeta, len(c.meta)),
		tick:       c.tick,
		accesses:   c.Accesses,
		hits:       c.Hits,
		misses:     c.Misses,
		writebacks: c.Writebacks,
	}
	copy(s.tags, c.tags)
	copy(s.meta, c.meta)
	return s
}

// Restore reinstates a snapshot taken from a cache with the same geometry
// (the tag and metadata arrays are sized by the configuration).
func (c *Cache) Restore(s Snapshot) {
	copy(c.tags, s.tags)
	copy(c.meta, s.meta)
	c.tick = s.tick
	c.Accesses = s.accesses
	c.Hits = s.hits
	c.Misses = s.misses
	c.Writebacks = s.writebacks
}
