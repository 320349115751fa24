// Package engine models the timing of an on-chip pipelined crypto unit.
//
// The paper assumes a fully pipelined encryption/decryption engine with a
// fixed latency (50 cycles for the DES-class ASIC of [18]/[10], 102 cycles
// for the Sandia AES-class unit in Figure 10). Being fully pipelined, a new
// block can be issued every initiation interval (1 cycle) while each block
// still takes the full latency to emerge. Algorithm 1 in the paper relies on
// this: the pads for every sub-block of a 128-byte line are produced by
// consecutive pipeline issues.
//
// The engine is purely a timing model: given issue times it returns
// completion times, tracking pipeline occupancy and a bounded issue queue.
// Functional encryption is done by the schemes themselves with the real
// ciphers.
package engine

import "fmt"

// Config describes one crypto unit.
type Config struct {
	// Latency is the end-to-end cycles for one block through the pipeline.
	Latency uint64
	// InitiationInterval is the minimum cycles between consecutive issues
	// (1 for a fully pipelined unit).
	InitiationInterval uint64
	// Ports is the number of independent pipelines (issue bandwidth).
	Ports int
}

// DefaultConfig is the paper's baseline unit: 50-cycle latency, fully
// pipelined, one pipeline.
func DefaultConfig() Config {
	return Config{Latency: 50, InitiationInterval: 1, Ports: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Latency == 0 {
		return fmt.Errorf("engine: latency must be positive")
	}
	if c.InitiationInterval == 0 {
		return fmt.Errorf("engine: initiation interval must be positive")
	}
	if c.Ports <= 0 {
		return fmt.Errorf("engine: ports must be positive")
	}
	return nil
}

// Engine tracks the issue availability of a pipelined crypto unit.
type Engine struct {
	cfg Config
	// nextFree[i] is the earliest cycle port i can accept a new block.
	nextFree []uint64
	// Stats.
	Issued      uint64 // blocks pushed through the pipeline
	BusyStalls  uint64 // issues that had to wait for a port
	StallCycles uint64 // total cycles issues waited
}

// New creates an engine from cfg. It panics on invalid configuration
// (programming error); use cfg.Validate for user-supplied configs.
func New(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg, nextFree: make([]uint64, cfg.Ports)}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Latency returns the configured block latency.
func (e *Engine) Latency() uint64 { return e.cfg.Latency }

// Issue submits one block at time `now` and returns the cycle its result is
// available. If all ports are busy the issue is delayed to the earliest
// available slot.
func (e *Engine) Issue(now uint64) (done uint64) {
	best := 0
	for i := 1; i < len(e.nextFree); i++ {
		if e.nextFree[i] < e.nextFree[best] {
			best = i
		}
	}
	start := now
	if e.nextFree[best] > start {
		e.BusyStalls++
		e.StallCycles += e.nextFree[best] - start
		start = e.nextFree[best]
	}
	e.nextFree[best] = start + e.cfg.InitiationInterval
	e.Issued++
	return start + e.cfg.Latency
}

// IssueBurst submits n blocks starting at `now` (e.g. the pads for every
// cipher block of a cache line) and returns the completion time of the last
// one. With a fully pipelined unit this is now + Latency + (n-1)*II.
func (e *Engine) IssueBurst(now uint64, n int) (lastDone uint64) {
	if n <= 0 {
		return now
	}
	for i := 0; i < n; i++ {
		lastDone = e.Issue(now)
		now = max64(now, lastDone-e.cfg.Latency+e.cfg.InitiationInterval)
	}
	return lastDone
}

// Reset clears pipeline occupancy and statistics.
func (e *Engine) Reset() {
	for i := range e.nextFree {
		e.nextFree[i] = 0
	}
	e.Issued, e.BusyStalls, e.StallCycles = 0, 0, 0
}

// Snapshot is a deep copy of the engine's mutable state (per-port pipeline
// occupancy and stats), taken with Snapshot and reinstated with Restore. It
// shares nothing with the engine it came from.
type Snapshot struct {
	nextFree    []uint64
	issued      uint64
	busyStalls  uint64
	stallCycles uint64
}

// Snapshot captures the engine's full mutable state.
func (e *Engine) Snapshot() Snapshot {
	s := Snapshot{
		nextFree:    make([]uint64, len(e.nextFree)),
		issued:      e.Issued,
		busyStalls:  e.BusyStalls,
		stallCycles: e.StallCycles,
	}
	copy(s.nextFree, e.nextFree)
	return s
}

// Restore reinstates a snapshot taken from an engine with the same port
// count.
func (e *Engine) Restore(s Snapshot) {
	copy(e.nextFree, s.nextFree)
	e.Issued = s.issued
	e.BusyStalls = s.busyStalls
	e.StallCycles = s.stallCycles
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
