package sim

import (
	"fmt"

	"secureproc/internal/cache"
	"secureproc/internal/core"
	"secureproc/internal/cpu"
	"secureproc/internal/crypto/engine"
	"secureproc/internal/mem"
	"secureproc/internal/workload"
)

// TimingModelVersion identifies the timing model for persisted results.
// Stored sim.Results are keyed by this string: bump it whenever a change
// alters any Result the simulator can produce (component timing, scheme
// behaviour, workload generation, measurement protocol — anything that moves
// a golden file), so stale entries in a warm-start store become misses
// instead of wrong answers. Adding new output fields that are zero for old
// configurations does not require a bump; changing existing numbers does.
//
// tm-2: Result gained SeqOverflows, nonzero for existing OTP configurations
// — entries stored under tm-1 would silently report it as zero.
const TimingModelVersion = "secsim-tm-2"

// Checkpoint is an architectural snapshot of a System at the
// warmup/measurement boundary, in the SMARTS/SimPoint checkpointing sense:
// the full microarchitectural state (cache contents and LRU recency, SNC
// contents and recency, write buffer, bus and crypto-pipeline reservations,
// core clock and in-flight misses, scheme-internal tables) deep-copied so
// any number of measurement runs can fork from it. A checkpoint shares no
// mutable state with the system it came from or with systems restored from
// it.
type Checkpoint struct {
	cfg    Config
	cpu    cpu.Snapshot
	l1i    cache.Snapshot
	l1d    cache.Snapshot
	l2     cache.Snapshot
	bus    mem.BusSnapshot
	wbuf   mem.WriteBufferSnapshot
	crypto engine.Snapshot
	scheme core.SchemeState
}

// Checkpoint captures the system's architectural state. It returns ok=false
// when the active scheme does not implement core.Snapshottable — such runs
// simply cannot be forked and must warm up from scratch.
func (s *System) Checkpoint() (*Checkpoint, bool) {
	sn, ok := s.scheme.(core.Snapshottable)
	if !ok {
		return nil, false
	}
	return &Checkpoint{
		cfg:    s.cfg,
		cpu:    s.cpu.Snapshot(),
		l1i:    s.l1i.Snapshot(),
		l1d:    s.l1d.Snapshot(),
		l2:     s.l2.Snapshot(),
		bus:    s.bus.Snapshot(),
		wbuf:   s.wbuf.Snapshot(),
		crypto: s.crypto.Snapshot(),
		scheme: sn.SnapshotState(),
	}, true
}

// compatible reports whether two configurations describe the same machine.
// Config as a whole is not comparable (the scheme reference carries a
// parameter map), so the comparable sub-configs are checked directly and the
// scheme by its canonical reference string.
func compatible(a, b Config) bool {
	return a.CPU == b.CPU &&
		a.L1I == b.L1I && a.L1D == b.L1D && a.L2 == b.L2 &&
		a.DRAM == b.DRAM && a.Crypto == b.Crypto && a.SNC == b.SNC &&
		a.WriteBufferDepth == b.WriteBufferDepth &&
		a.Scheme.Canonical() == b.Scheme.Canonical()
}

// Restore reinstates a checkpoint into this system. The system must have
// been built from the same configuration the checkpoint was taken under;
// restoring reuses the system's existing allocations, so a settled system
// stays allocation-free through restore-and-run cycles.
func (s *System) Restore(cp *Checkpoint) error {
	if !compatible(s.cfg, cp.cfg) {
		return fmt.Errorf("sim: checkpoint config mismatch (%s vs %s)",
			cp.cfg.Scheme.Canonical(), s.cfg.Scheme.Canonical())
	}
	sn, ok := s.scheme.(core.Snapshottable)
	if !ok {
		return fmt.Errorf("sim: scheme %s cannot restore checkpoints", s.scheme.Name())
	}
	if err := sn.RestoreState(cp.scheme); err != nil {
		return err
	}
	s.cpu.Restore(cp.cpu)
	s.l1i.Restore(cp.l1i)
	s.l1d.Restore(cp.l1d)
	s.l2.Restore(cp.l2)
	s.bus.Restore(cp.bus)
	s.wbuf.Restore(cp.wbuf)
	s.crypto.Restore(cp.crypto)
	return nil
}

// RunWarmup consumes a warmup-prefix stream and settles the machine at the
// measurement boundary (outstanding misses drained), leaving it ready to be
// checkpointed or to continue into RunMeasured. Together,
//
//	sys.RunWarmup(Replay(recs[:warm]))
//	res := sys.RunMeasured(Replay(recs[warm:]))
//
// is event-for-event identical to sys.Run(Replay(recs), warm): Run drains
// and snapshots at the n == warmupRecords boundary exactly as the split does
// (including the degenerate warm == 0 and empty-measurement cases).
func (s *System) RunWarmup(stream workload.Stream) {
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		s.step(rec)
	}
	s.cpu.Drain()
}

// RunMeasured starts measurement (statistics restart; architectural state —
// warmed or restored from a checkpoint — is kept), consumes the stream to
// exhaustion and returns the result.
func (s *System) RunMeasured(stream workload.Stream) Result {
	s.BeginMeasurement()
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		s.step(rec)
	}
	s.cpu.Drain()
	return s.result()
}
