// Package sim assembles the full system — out-of-order core, split L1s,
// unified L2, write buffer, memory bus, crypto engine and a protection
// scheme — and runs workload traces through it, producing the cycle counts
// and traffic statistics behind every figure in the paper.
package sim

import (
	"fmt"

	"secureproc/internal/cache"
	"secureproc/internal/core"
	"secureproc/internal/cpu"
	"secureproc/internal/crypto/engine"
	"secureproc/internal/mem"
	"secureproc/internal/snc"
	"secureproc/internal/workload"
)

// SchemeRef selects the memory-protection scheme: a registry name plus
// optional construction parameters (core.Ref). Schemes are resolved through
// the core registry, so new schemes registered there are immediately
// selectable here without touching this package.
type SchemeRef = core.Ref

// SchemeParams carries free-form scheme parameters inside a SchemeRef.
type SchemeParams = core.Params

// References to the built-in schemes (the four the paper evaluates plus
// the two registry-era extensions); any registered name works equally via
// SchemeByName.
var (
	// SchemeBaseline is the insecure processor.
	SchemeBaseline = SchemeRef{Name: "baseline"}
	// SchemeXOM is direct encryption on the critical path.
	SchemeXOM = SchemeRef{Name: "xom"}
	// SchemeOTPLRU is one-time-pad encryption with an LRU SNC.
	SchemeOTPLRU = SchemeRef{Name: "snc-lru"}
	// SchemeOTPNoRepl is one-time-pad encryption with a no-replacement SNC.
	SchemeOTPNoRepl = SchemeRef{Name: "snc-norepl"}
	// SchemeOTPMAC is snc-lru plus MAC integrity verification.
	SchemeOTPMAC = SchemeRef{Name: "otp-mac"}
	// SchemeOTPPrecompute is snc-lru plus pad precompute/retention.
	SchemeOTPPrecompute = SchemeRef{Name: "otp-precompute"}
)

// SchemeByName resolves a scheme reference string — "snc-lru" or
// "otp-mac:verify=blocking" — against the registry, validating both the
// name (aliases accepted) and the parameters. The error for an unknown
// name lists every registered scheme.
func SchemeByName(s string) (SchemeRef, error) {
	ref, err := core.ParseRef(s)
	if err != nil {
		return SchemeRef{}, err
	}
	d, err := core.LookupRef(ref)
	if err != nil {
		return SchemeRef{}, err
	}
	ref.Name = d.Name // canonicalize aliases
	return ref, nil
}

// SchemeNames lists the registered scheme names in registration order.
func SchemeNames() []string { return core.Names() }

// Config is a full system configuration.
type Config struct {
	CPU    cpu.Config
	L1I    cache.Config
	L1D    cache.Config
	L2     cache.Config
	DRAM   mem.DRAMConfig
	Crypto engine.Config
	SNC    snc.Config
	Scheme SchemeRef
	// WriteBufferDepth is the number of outstanding writebacks tolerated.
	WriteBufferDepth int
}

// DefaultConfig reproduces the paper's Section 5 baseline: 4-issue OoO,
// 32KB 4-way split L1s, 256KB 4-way 128B-line L2, 100-cycle memory,
// 50-cycle crypto, 64KB fully associative SNC.
func DefaultConfig() Config {
	return Config{
		CPU:              cpu.DefaultConfig(),
		L1I:              cache.Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1},
		L1D:              cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1},
		L2:               cache.Config{Name: "L2", SizeBytes: 256 << 10, LineBytes: 128, Ways: 4, HitLatency: 12},
		DRAM:             mem.DefaultDRAMConfig(),
		Crypto:           engine.DefaultConfig(),
		SNC:              snc.DefaultConfig(),
		Scheme:           SchemeBaseline,
		WriteBufferDepth: 8,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Crypto.Validate(); err != nil {
		return err
	}
	d, err := core.LookupRef(c.Scheme)
	if err != nil {
		return fmt.Errorf("sim: invalid scheme: %w", err)
	}
	if d.NeedsSNC {
		if err := c.SNC.Validate(); err != nil {
			return err
		}
		if c.SNC.LineBytes != c.L2.LineBytes {
			return fmt.Errorf("sim: SNC line size %d != L2 line size %d", c.SNC.LineBytes, c.L2.LineBytes)
		}
	}
	if c.WriteBufferDepth <= 0 {
		return fmt.Errorf("sim: write buffer depth must be positive")
	}
	return nil
}

// Result carries the outcome of one run.
type Result struct {
	Scheme       string
	Cycles       uint64
	Instructions uint64

	L1DMisses uint64
	L1IMisses uint64
	L2Misses  uint64
	L2Hits    uint64

	// Bus traffic by source (Figure 9; MAC columns for integrity schemes,
	// Figure I1).
	LineFills     uint64
	Writebacks    uint64
	SeqNumFetches uint64
	SeqNumSpills  uint64
	MACFetches    uint64
	MACUpdates    uint64

	// SNC behaviour (zero for non-OTP schemes).
	SNCQueryHits   uint64
	SNCQueryMisses uint64
	SNCUpdateHits  uint64
	SNCUpdateMiss  uint64
	// SeqOverflows counts 16-bit sequence-number wraparounds, each charged
	// as a direct re-encryption (the cost split-counter schemes attack).
	SeqOverflows uint64

	// Integrity verification (zero for schemes without MACs).
	IntegrityVerified    uint64
	IntegrityStallCycles uint64

	// CPU stall decomposition.
	ROBStallCycles  uint64
	MSHRStallCycles uint64
	DepStallCycles  uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// DemandTraffic returns fills + writebacks (the Figure 9 denominator).
func (r Result) DemandTraffic() uint64 { return r.LineFills + r.Writebacks }

// SNCTraffic returns seq-number fetches + spills (the Figure 9 numerator).
func (r Result) SNCTraffic() uint64 { return r.SeqNumFetches + r.SeqNumSpills }

// MACTraffic returns integrity-induced extra traffic (MAC fetches +
// updates), the Figure I1 traffic numerator.
func (r Result) MACTraffic() uint64 { return r.MACFetches + r.MACUpdates }

// System is an assembled machine ready to consume a trace.
type System struct {
	cfg    Config
	cpu    *cpu.CPU
	l1i    *cache.Cache
	l1d    *cache.Cache
	l2     *cache.Cache
	bus    *mem.Bus
	wbuf   *mem.WriteBuffer
	crypto *engine.Engine
	scheme core.Scheme

	// fillAccess and fillFn implement the scheme-read callback the CPU
	// model takes on every miss. The closure is bound once at construction
	// and reads its access from fillAccess, so the per-miss path allocates
	// nothing; this is safe because the CPU invokes the callback
	// synchronously, before the next access is staged.
	fillAccess core.Access
	fillFn     func(uint64) uint64

	// Context-switch scratch, reused so steady-state switches don't
	// allocate: the deduplicated dirty-victim list and the L2-line
	// membership set behind it.
	switchVictims [][2]uint64
	switchSeen    map[uint64]struct{}

	// Measurement snapshot taken at the warmup/measurement boundary.
	cycles0, instr0                  uint64
	robStall0, mshrStall0, depStall0 uint64
}

// New assembles a system from cfg. The protection scheme is constructed
// through the core registry from cfg.Scheme, so any registered scheme —
// built-in or externally registered — is selectable by reference.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		cpu:    cpu.New(cfg.CPU),
		l1i:    cache.New(cfg.L1I),
		l1d:    cache.New(cfg.L1D),
		l2:     cache.New(cfg.L2),
		bus:    mem.NewBus(cfg.DRAM),
		wbuf:   mem.NewWriteBuffer(cfg.WriteBufferDepth),
		crypto: engine.New(cfg.Crypto),
	}
	scheme, err := core.Build(cfg.Scheme, core.Resources{
		Bus:       s.bus,
		WBuf:      s.wbuf,
		Crypto:    s.crypto,
		SNC:       cfg.SNC,
		LineBytes: cfg.L2.LineBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s.scheme = scheme
	s.fillFn = func(issue uint64) uint64 {
		return s.scheme.ReadLine(issue, s.fillAccess)
	}
	s.switchSeen = make(map[uint64]struct{})
	return s, nil
}

// Scheme returns the active protection scheme.
func (s *System) Scheme() core.Scheme { return s.scheme }

// handleL2Victim routes a dirty L2 eviction through the scheme's writeback
// path and charges any CPU stall (write buffer full).
func (s *System) handleL2Victim(res cache.Result) {
	if !res.WritebackNeeded {
		return
	}
	cpuFree := s.scheme.WritebackLine(s.cpu.Cycles(), core.Access{PA: res.WritebackAddr, VA: res.WritebackVA})
	s.cpu.WaitUntil(cpuFree)
}

// l2FillFor stages a and returns the prebound fill callback for a missing
// L2 line: it asks the scheme when the line is ready.
func (s *System) l2FillFor(a core.Access) func(uint64) uint64 {
	s.fillAccess = a
	return s.fillFn
}

// accessData walks a data reference through L1D and L2.
func (s *System) accessData(rec workload.Record) {
	write := rec.Kind == workload.Store
	l1res := s.l1d.Access(rec.Addr, rec.Addr, write)
	if l1res.Hit {
		if write {
			s.cpu.StoreHit()
		} else {
			s.cpu.LoadHitL1(rec.Depends)
		}
		return
	}
	// L1 dirty victim descends into L2 (write-back).
	if l1res.WritebackNeeded {
		l2res := s.l2.Access(l1res.WritebackAddr, l1res.WritebackVA, true)
		if !l2res.Hit {
			// Write-allocate the victim's line in L2: a background fill.
			s.handleL2Victim(l2res)
			a := core.Access{PA: s.l2.LineAddr(l1res.WritebackAddr), VA: s.l2.LineAddr(l1res.WritebackVA)}
			s.cpu.StoreMiss(s.l2FillFor(a))
		}
	}
	// Demand access in L2. The L1 allocates regardless (already done above).
	l2res := s.l2.Access(rec.Addr, rec.Addr, write)
	if l2res.Hit {
		if write {
			s.cpu.StoreHit()
		} else {
			s.cpu.LoadHitL2(rec.Depends)
		}
		return
	}
	s.handleL2Victim(l2res)
	a := core.Access{PA: s.l2.LineAddr(rec.Addr), VA: s.l2.LineAddr(rec.Addr)}
	if write {
		s.cpu.StoreMiss(s.l2FillFor(a))
	} else {
		s.cpu.LoadMiss(rec.Depends, s.l2FillFor(a))
	}
}

// accessInstr walks an instruction fetch through L1I and L2.
func (s *System) accessInstr(rec workload.Record) {
	if s.l1i.Access(rec.Addr, rec.Addr, false).Hit {
		s.cpu.Compute(1)
		return
	}
	l2res := s.l2.Access(rec.Addr, rec.Addr, false)
	if l2res.Hit {
		s.cpu.LoadHitL2(false) // exposed only to the frontend restart
		return
	}
	s.handleL2Victim(l2res)
	a := core.Access{PA: s.l2.LineAddr(rec.Addr), VA: s.l2.LineAddr(rec.Addr), Instr: true}
	s.cpu.IFetchMiss(s.l2FillFor(a))
}

// step processes one trace record.
func (s *System) step(rec workload.Record) {
	if rec.Gap > 0 {
		s.cpu.Compute(uint64(rec.Gap))
	}
	switch rec.Kind {
	case workload.IFetch:
		s.accessInstr(rec)
	default:
		s.accessData(rec)
	}
}

// Step feeds one trace record through the machine. External drivers (the
// multiprogrammed scheduler in internal/sched) use it to interleave several
// streams on one system; Run remains the single-stream entry point.
func (s *System) Step(rec workload.Record) { s.step(rec) }

// Cycles returns the core's current clock.
func (s *System) Cycles() uint64 { return s.cpu.Cycles() }

// Retired returns the number of instructions retired so far.
func (s *System) Retired() uint64 { return s.cpu.Retired() }

// Drain stalls until all outstanding misses complete (end of a run).
func (s *System) Drain() { s.cpu.Drain() }

// BusDemandTransactions returns fills + writebacks so far (the traffic
// denominator external drivers report percentages against).
func (s *System) BusDemandTransactions() uint64 { return s.bus.DemandTransactions() }

// SwitchCost itemizes what one task switch put on the memory system.
type SwitchCost struct {
	// DirtyWritebacks is the number of dirty lines the cache invalidation
	// pushed out through the scheme's writeback path.
	DirtyWritebacks uint64
	// SeqSpills is the switch-induced SNC spill traffic (nonzero only for
	// the flush policy).
	SeqSpills uint64
	// SchemeDone is the cycle the scheme's switch work has fully drained
	// (== the switch cycle when the scheme has no per-process state).
	SchemeDone uint64
}

// ContextSwitch switches the machine to process next (Section 4.3 put on
// the timing path): every cache level is invalidated, dirty lines are
// written back through the protection scheme under the outgoing process,
// and then the scheme's own context-switch policy runs (SNC flush-encrypt,
// or a PID tag change). The CPU is charged exactly what the components
// charge — writebacks drain through the write buffer and stall the core
// only on buffer pressure.
func (s *System) ContextSwitch(next int) SwitchCost {
	spills0 := s.bus.Transactions[mem.SrcSeqNumSpill]
	var cost SwitchCost

	// Invalidate the hierarchy. L1 lines are smaller than L2 lines; dirty
	// state is written back at L2 granularity, deduplicated so a line dirty
	// in both levels goes out once. Victim list and membership set are
	// reused scratch so repeated switches stop allocating.
	s.l1i.InvalidateAll()
	victims := s.switchVictims[:0]
	clear(s.switchSeen)
	add := func(pa, va uint64) { //secsim:allowalloc non-escaping closure over reused scratch; AllocsPerRun==0 gate in allocs_test.go
		lpa := s.l2.LineAddr(pa)
		if _, ok := s.switchSeen[lpa]; !ok {
			s.switchSeen[lpa] = struct{}{}                               //secsim:allowalloc switchSeen is cleared, not reallocated; stable after first switch
			victims = append(victims, [2]uint64{lpa, s.l2.LineAddr(va)}) //secsim:allowalloc switchVictims scratch reuse; stable after first switch
		}
	}
	for _, d := range s.l1d.InvalidateAll() {
		add(d[0], d[1])
	}
	for _, d := range s.l2.InvalidateAll() {
		add(d[0], d[1])
	}
	for _, v := range victims {
		cpuFree := s.scheme.WritebackLine(s.cpu.Cycles(), core.Access{PA: v[0], VA: v[1]})
		s.cpu.WaitUntil(cpuFree)
	}
	s.switchVictims = victims
	cost.DirtyWritebacks = uint64(len(victims))

	cost.SchemeDone = s.cpu.Cycles()
	if cs, ok := s.scheme.(core.ContextSwitcher); ok {
		cost.SchemeDone = cs.ContextSwitch(s.cpu.Cycles(), next)
	}
	cost.SeqSpills = s.bus.Transactions[mem.SrcSeqNumSpill] - spills0
	return cost
}

// BeginMeasurement marks the warmup/measurement boundary: microarchitectural
// state (cache and SNC contents, LRU recency, clock) is kept, but all
// statistics restart — mirroring the paper's fast-forward protocol.
func (s *System) BeginMeasurement() {
	s.cycles0 = s.cpu.Cycles()
	s.instr0 = s.cpu.Retired()
	s.robStall0 = s.cpu.ROBStallCycles
	s.mshrStall0 = s.cpu.MSHRStallCycles
	s.depStall0 = s.cpu.DepStallCycles
	s.l1i.ResetStats()
	s.l1d.ResetStats()
	s.l2.ResetStats()
	s.bus.ResetStats()
	s.scheme.ResetStats()
}

// Run consumes the stream to exhaustion and returns the result. The first
// warmupRecords records run before the measurement snapshot.
func (s *System) Run(stream workload.Stream, warmupRecords int) Result {
	n := 0
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		if n == warmupRecords {
			s.cpu.Drain() // settle outstanding warmup misses
			s.BeginMeasurement()
		}
		s.step(rec)
		n++
	}
	s.cpu.Drain()
	if n <= warmupRecords {
		s.BeginMeasurement() // trace shorter than warmup: empty measurement
	}
	return s.result()
}

func (s *System) result() Result {
	r := Result{
		Scheme:          s.scheme.Name(),
		Cycles:          s.cpu.Cycles() - s.cycles0,
		Instructions:    s.cpu.Retired() - s.instr0,
		L1DMisses:       s.l1d.Misses,
		L1IMisses:       s.l1i.Misses,
		L2Misses:        s.l2.Misses,
		L2Hits:          s.l2.Hits,
		LineFills:       s.bus.Transactions[mem.SrcLineFill],
		Writebacks:      s.bus.Transactions[mem.SrcWriteback],
		SeqNumFetches:   s.bus.Transactions[mem.SrcSeqNumFetch],
		SeqNumSpills:    s.bus.Transactions[mem.SrcSeqNumSpill],
		MACFetches:      s.bus.Transactions[mem.SrcMACFetch],
		MACUpdates:      s.bus.Transactions[mem.SrcMACUpdate],
		ROBStallCycles:  s.cpu.ROBStallCycles - s.robStall0,
		MSHRStallCycles: s.cpu.MSHRStallCycles - s.mshrStall0,
		DepStallCycles:  s.cpu.DepStallCycles - s.depStall0,
	}
	// Schemes expose optional capability interfaces; the registry keeps
	// sim decoupled from the concrete scheme set.
	if sp, ok := s.scheme.(interface{ SNC() *snc.SNC }); ok {
		sn := sp.SNC()
		r.SNCQueryHits = sn.QueryHits
		r.SNCQueryMisses = sn.QueryMisses
		r.SNCUpdateHits = sn.UpdateHits
		r.SNCUpdateMiss = sn.UpdateMisses
		r.SeqOverflows = sn.SeqOverflows
	}
	if iv, ok := s.scheme.(interface {
		IntegrityCounters() (verified, stallCycles uint64)
	}); ok {
		r.IntegrityVerified, r.IntegrityStallCycles = iv.IntegrityCounters()
	}
	return r
}

// RunProfile is the one-call entry point: build the system, generate the
// trace at the given scale, run it with the profile's warmup boundary.
func RunProfile(cfg Config, prof workload.Profile, scale float64) (Result, error) {
	sys, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	stream, err := workload.NewStream(prof, scale)
	if err != nil {
		return Result{}, err
	}
	return sys.Run(stream, prof.WarmupRefs()), nil
}

// Slowdown returns the percent slowdown of r relative to base.
func Slowdown(r, base Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return 100 * (float64(r.Cycles)/float64(base.Cycles) - 1)
}

// NormalizedTime returns r's execution time normalized to base (Figure 8).
func NormalizedTime(r, base Result) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(base.Cycles)
}
