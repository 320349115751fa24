// Package cpu models the timing of a 4-issue out-of-order core at the level
// the paper's evaluation needs: how much of each L2-miss latency is exposed
// to the pipeline.
//
// The paper uses SimpleScalar's sim-outorder. Its figures are driven by
// three core mechanisms, all modelled here:
//
//   - Issue bandwidth: non-memory work retires at IssueWidth per cycle.
//   - Memory-level parallelism: independent misses overlap, bounded by the
//     MSHR count and by the reorder buffer — the core can only run ROB
//     instructions past the oldest incomplete miss before retirement stalls.
//   - Dependence: a load feeding the next load (pointer chasing) exposes the
//     full latency of each link in the chain.
//
// This is an interval model, not a pipeline simulator: precise enough to
// reproduce which workloads expose how much of the crypto latency, and fast
// enough to sweep the paper's full parameter space.
package cpu

import "fmt"

// Config describes the core.
type Config struct {
	// IssueWidth is instructions retired per cycle when nothing stalls
	// (the paper's 4-issue).
	IssueWidth int
	// ROB is the reorder-buffer depth in instructions.
	ROB int
	// MSHRs bounds concurrently outstanding L2 misses.
	MSHRs int
	// L2HitLatency is the exposed latency of a dependent L2 hit.
	L2HitLatency uint64
}

// DefaultConfig matches the paper's 4-issue out-of-order SimpleScalar
// baseline (RUU/ROB and MSHR values are SimpleScalar-era defaults).
func DefaultConfig() Config {
	return Config{IssueWidth: 4, ROB: 128, MSHRs: 8, L2HitLatency: 12}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 {
		return fmt.Errorf("cpu: issue width must be positive")
	}
	if c.ROB <= 0 {
		return fmt.Errorf("cpu: ROB must be positive")
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cpu: MSHRs must be positive")
	}
	return nil
}

type inflight struct {
	complete uint64 // cycle the fill returns
	seq      uint64 // instruction count when the miss issued
}

// CPU is the core timing state.
type CPU struct {
	cfg   Config
	clock uint64
	// retired counts instructions retired so far (the program order
	// position of the next instruction).
	retired uint64
	// misses in flight, oldest first, in a fixed ring buffer: occupancy is
	// bounded by the MSHR count, so steady-state stepping never allocates.
	misses   []inflight
	missHead int
	missN    int
	// lastLoadDone is the completion time of the most recent load, for
	// dependent chains.
	lastLoadDone uint64
	// slot is the number of issue slots already consumed in the current
	// cycle, so single-instruction events aggregate at IssueWidth/cycle.
	slot uint64

	// Stats.
	ROBStallCycles  uint64
	MSHRStallCycles uint64
	DepStallCycles  uint64
}

// New builds a CPU, panicking on invalid configuration.
func New(cfg Config) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &CPU{cfg: cfg, misses: make([]inflight, cfg.MSHRs)}
}

// missAt returns the in-flight miss at ring position i (0 = oldest).
func (c *CPU) missAt(i int) inflight {
	j := c.missHead + i
	if j >= len(c.misses) {
		j -= len(c.misses)
	}
	return c.misses[j]
}

// popMiss drops the oldest in-flight miss.
func (c *CPU) popMiss() {
	c.missHead++
	if c.missHead == len(c.misses) {
		c.missHead = 0
	}
	c.missN--
}

// pushMiss records a new in-flight miss (the caller has ensured a free MSHR).
func (c *CPU) pushMiss(m inflight) {
	j := c.missHead + c.missN
	if j >= len(c.misses) {
		j -= len(c.misses)
	}
	c.misses[j] = m
	c.missN++
}

// Config returns the core configuration.
func (c *CPU) Config() Config { return c.cfg }

// Cycles returns the current clock.
func (c *CPU) Cycles() uint64 { return c.clock }

// Retired returns the number of instructions retired.
func (c *CPU) Retired() uint64 { return c.retired }

// advanceIssue retires n instructions at IssueWidth per cycle, carrying
// leftover issue slots between calls.
func (c *CPU) advanceIssue(n uint64) {
	total := c.slot + n
	w := uint64(c.cfg.IssueWidth)
	c.clock += total / w
	c.slot = total % w
}

// stallTo jumps the clock to t (a pipeline stall), discarding partial-cycle
// issue slack.
func (c *CPU) stallTo(t uint64) {
	c.clock = t
	c.slot = 0
}

// retireWindow enforces the ROB: before retiring more instructions, check
// whether the window past the oldest incomplete miss is exhausted, and if
// so wait for that miss.
func (c *CPU) retireWindow(n uint64) {
	for n > 0 {
		if c.missN == 0 {
			c.retired += n
			c.advanceIssue(n)
			return
		}
		oldest := c.missAt(0)
		limit := oldest.seq + uint64(c.cfg.ROB)
		if c.retired+n <= limit {
			c.retired += n
			c.advanceIssue(n)
			return
		}
		// Retire up to the window edge, then stall for the oldest miss.
		headroom := uint64(0)
		if limit > c.retired {
			headroom = limit - c.retired
		}
		c.retired += headroom
		c.advanceIssue(headroom)
		if oldest.complete > c.clock {
			c.ROBStallCycles += oldest.complete - c.clock
			c.stallTo(oldest.complete)
		}
		c.popMiss()
		n -= headroom
	}
}

// Compute advances the core through instrs non-memory instructions.
func (c *CPU) Compute(instrs uint64) { c.retireWindow(instrs) }

// LoadHitL1 models a load that hits the L1: fully pipelined, no exposure.
func (c *CPU) LoadHitL1(depends bool) {
	c.retireWindow(1)
	if depends && c.lastLoadDone > c.clock {
		c.DepStallCycles += c.lastLoadDone - c.clock
		c.stallTo(c.lastLoadDone)
	}
	c.lastLoadDone = c.clock
}

// LoadHitL2 models an L1 miss that hits the L2: the latency is exposed only
// to dependent consumers.
func (c *CPU) LoadHitL2(depends bool) {
	c.retireWindow(1)
	if depends && c.lastLoadDone > c.clock {
		c.DepStallCycles += c.lastLoadDone - c.clock
		c.stallTo(c.lastLoadDone)
	}
	c.lastLoadDone = c.clock + c.cfg.L2HitLatency
}

// LoadMiss models an L2 load miss. fill is called with the issue cycle and
// returns the cycle the line is usable (the scheme's ReadLine). depends
// marks the load as consuming the previous load's result.
func (c *CPU) LoadMiss(depends bool, fill func(issue uint64) (ready uint64)) {
	c.retireWindow(1)
	if depends && c.lastLoadDone > c.clock {
		c.DepStallCycles += c.lastLoadDone - c.clock
		c.stallTo(c.lastLoadDone)
	}
	// MSHR pressure: wait for the oldest miss if all entries are busy.
	if c.missN >= c.cfg.MSHRs {
		oldest := c.missAt(0)
		if oldest.complete > c.clock {
			c.MSHRStallCycles += oldest.complete - c.clock
			c.stallTo(oldest.complete)
		}
		c.popMiss()
	}
	ready := fill(c.clock)
	c.pushMiss(inflight{complete: ready, seq: c.retired})
	c.lastLoadDone = ready
}

// StoreMiss models a store that misses the L2: the line fill happens in the
// background (write-allocate) and occupies an MSHR, but the store itself
// retires through the store buffer without exposing latency.
func (c *CPU) StoreMiss(fill func(issue uint64) (ready uint64)) {
	c.retireWindow(1)
	if c.missN >= c.cfg.MSHRs {
		oldest := c.missAt(0)
		if oldest.complete > c.clock {
			c.MSHRStallCycles += oldest.complete - c.clock
			c.stallTo(oldest.complete)
		}
		c.popMiss()
	}
	ready := fill(c.clock)
	c.pushMiss(inflight{complete: ready, seq: c.retired})
}

// StoreHit models a store that hits on chip: retires through the store
// buffer.
func (c *CPU) StoreHit() { c.retireWindow(1) }

// IFetchMiss models an instruction fetch that misses to memory: the
// frontend drains, so the fill latency is fully exposed.
func (c *CPU) IFetchMiss(fill func(issue uint64) (ready uint64)) {
	c.retireWindow(1)
	ready := fill(c.clock)
	if ready > c.clock {
		c.stallTo(ready)
	}
}

// WaitUntil advances the clock to at least t (write-buffer-full stalls).
func (c *CPU) WaitUntil(t uint64) {
	if t > c.clock {
		c.stallTo(t)
	}
}

// Drain waits for all outstanding misses — call at the end of a run.
func (c *CPU) Drain() {
	for i := 0; i < c.missN; i++ {
		if m := c.missAt(i); m.complete > c.clock {
			c.stallTo(m.complete)
		}
	}
	c.missHead, c.missN = 0, 0
}

// OutstandingMisses returns the number of misses in flight (diagnostics).
func (c *CPU) OutstandingMisses() int { return c.missN }

// Snapshot is an opaque deep copy of the core's mutable timing state, taken
// with Snapshot and reinstated with Restore. It shares nothing with the CPU
// it came from, so one snapshot can seed any number of forked runs.
type Snapshot struct {
	clock        uint64
	retired      uint64
	misses       []inflight
	missHead     int
	missN        int
	lastLoadDone uint64
	slot         uint64

	robStall  uint64
	mshrStall uint64
	depStall  uint64
}

// Snapshot captures the core's full mutable state.
func (c *CPU) Snapshot() Snapshot {
	s := Snapshot{
		clock:        c.clock,
		retired:      c.retired,
		misses:       make([]inflight, len(c.misses)),
		missHead:     c.missHead,
		missN:        c.missN,
		lastLoadDone: c.lastLoadDone,
		slot:         c.slot,
		robStall:     c.ROBStallCycles,
		mshrStall:    c.MSHRStallCycles,
		depStall:     c.DepStallCycles,
	}
	copy(s.misses, c.misses)
	return s
}

// Restore reinstates a snapshot taken from a core with the same
// configuration (the miss ring is sized by cfg.MSHRs).
func (c *CPU) Restore(s Snapshot) {
	c.clock = s.clock
	c.retired = s.retired
	copy(c.misses, s.misses)
	c.missHead = s.missHead
	c.missN = s.missN
	c.lastLoadDone = s.lastLoadDone
	c.slot = s.slot
	c.ROBStallCycles = s.robStall
	c.MSHRStallCycles = s.mshrStall
	c.DepStallCycles = s.depStall
}
