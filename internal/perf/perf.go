// Package perf is the repository's performance harness: it runs a fixed,
// reduced-scale slice of the paper's figure sweep plus targeted
// single-simulation probes and functional protected-memory probes,
// measures wall-clock, simulation throughput, instruction throughput and
// allocations, and emits a machine-readable snapshot (benchmark name →
// {ns/op, allocs/op, sims/sec}).
//
// The snapshot has two consumers:
//
//   - developers, via `go test ./internal/perf -run TestPerfSnapshot
//     -perf.out=BENCH.json` or `secsim -perf`, to record where the
//     simulator's speed stands;
//   - CI, which collects one snapshot on the merge-base and one on the PR
//     head and fails the build when ns/op regresses beyond a threshold or
//     allocs/op grows at all (Compare).
//
// Workloads, scales and iteration counts are fixed constants so that two
// snapshots of the same code differ only by machine noise; ns/op is taken
// as the best of Rounds runs to damp that noise further.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"secureproc/internal/core"
	"secureproc/internal/crypto/aes"
	"secureproc/internal/crypto/des"
	"secureproc/internal/dispatch"
	"secureproc/internal/experiments"
	"secureproc/internal/mem"
	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// Metric is one benchmark's measurement.
type Metric struct {
	// NsPerOp is the best-of-Rounds wall-clock for one operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the heap allocation count of one operation (measured
	// once, after warmup: allocation counts are deterministic).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SimsPerSec is complete simulations per second during the best round
	// (zero for benchmarks that aren't simulation-granular).
	SimsPerSec float64 `json:"sims_per_sec"`
	// InstrsPerSec is simulated instructions retired per wall-clock second
	// during the best round (zero where not meaningful).
	InstrsPerSec float64 `json:"instrs_per_sec,omitempty"`
}

// Snapshot maps benchmark name → measurement.
type Snapshot map[string]Metric

// Rounds is how many times each timed operation runs; NsPerOp keeps the
// fastest, which is the standard way to strip scheduler noise from a
// deterministic workload.
const Rounds = 3

// sweepScale is the workload scale of the figure-sweep benchmark — the
// same reduced scale the golden figures are generated at.
const sweepScale = 0.05

// probeScale is the workload scale of the single-simulation probes.
const probeScale = 0.1

// latencyScale is the workload scale of the end-to-end latency probe. Full
// scale, deliberately: the probe measures the latency of exactly one
// uncached full-length request.
const latencyScale = 1.0

// Collect runs the full harness and returns the snapshot.
func Collect() Snapshot {
	s := make(Snapshot)
	s["figure-sweep"] = measureSweep()
	s["figure-c1"] = measureFigureC1()
	for _, p := range []struct {
		name   string
		scheme sim.SchemeRef
		bench  string
	}{
		{"sim-baseline-mcf", sim.SchemeBaseline, "mcf"},
		{"sim-snc-lru-mcf", sim.SchemeOTPLRU, "mcf"},
		{"sim-snc-lru-gcc", sim.SchemeOTPLRU, "gcc"},
		{"sim-xom-art", sim.SchemeXOM, "art"},
	} {
		s[p.name] = measureSim(p.scheme, p.bench)
	}
	s["latency-snc-lru-mcf-serial"] = measureLatency()
	s["dispatch-overhead"] = measureDispatch()
	dc, err := des.NewCipher([]byte("8bytekey"))
	if err != nil {
		panic(err)
	}
	ac, err := aes.NewCipher([]byte("sixteen byte key"))
	if err != nil {
		panic(err)
	}
	s["securemem-des"] = measureSecureMem(dc)
	s["securemem-aes"] = measureSecureMem(ac)
	return s
}

// Geometry of the securemem probes: securememOps line operations per op
// over a securememLines-line working set of 128-byte lines.
const (
	securememOps   = 1 << 15
	securememLines = 256
	securememLine  = 128
)

// measureSecureMem prices the functional protected memory with the given
// pad cipher: a fixed 70/30 mix of ReadLine and steady-state WriteLineOTP
// over a pre-filled working set. Unlike the other probes, NsPerOp and
// AllocsPerOp are per line operation: a read allocates only the line it
// returns, a write nothing.
func measureSecureMem(c core.BlockCipher) Metric {
	sm, err := core.NewSecureMemory(mem.NewMemory(), c, securememLine)
	if err != nil {
		panic(err)
	}
	data := make([]byte, securememLine)
	va := func(i int) uint64 { return 0x4000_0000 + uint64(i%securememLines)*securememLine }
	for i := 0; i < securememLines; i++ {
		if err := sm.WriteLineOTP(va(i), data); err != nil {
			panic(err)
		}
	}
	m := measureOp(func() (int, uint64) {
		for i := 0; i < securememOps; i++ {
			a := va(i * 97) // 97 is coprime to the line count: every line, scattered
			if i%10 < 3 {
				data[0] = byte(i)
				if err := sm.WriteLineOTP(a, data); err != nil {
					panic(err)
				}
			} else if _, err := sm.ReadLine(a); err != nil {
				panic(err)
			}
		}
		return 0, 0
	})
	m.NsPerOp /= securememOps
	m.AllocsPerOp /= securememOps
	return m
}

// dispatchJobs is the batch size of the dispatch-overhead probe.
const dispatchJobs = 1024

// measureDispatch prices the dispatch layer itself: dispatchJobs trivial
// jobs from two owners pushed through a fresh Dispatcher over a
// GOMAXPROCS-slot budget, measuring pure scheduling cost (queueing,
// weighted-fair picks, slot accounting, goroutine hand-off) with no
// simulation work attached. This is the overhead every dispatched request
// pays on top of its simulation; the batch figure-sweep path never
// constructs a Dispatcher and is separately gated by figure-sweep staying
// flat.
func measureDispatch() Metric {
	return measureOp(func() (int, uint64) {
		b := dispatch.NewBudget(runtime.GOMAXPROCS(0))
		d := dispatch.NewDispatcher(b)
		ctx := context.Background() //secsim:detach perf harness runs are never cancelled
		var wg sync.WaitGroup
		wg.Add(dispatchJobs)
		for i := 0; i < dispatchJobs; i++ {
			owner := "bulk"
			if i%2 == 1 {
				owner = "interactive"
			}
			d.Submit(ctx, owner, 1+i%2, func(context.Context) { wg.Done() })
		}
		wg.Wait()
		return 0, 0
	})
}

// measureOp times op() Rounds times (after one untimed warmup for the
// allocation count) and fills the shared Metric fields. op reports how many
// simulations and simulated instructions it performed.
func measureOp(op func() (sims int, instrs uint64)) Metric {
	var m Metric
	var ms0, ms1 runtime.MemStats

	op() // untimed warmup: one-time lazy initialization must not count

	runtime.GC()
	runtime.ReadMemStats(&ms0)
	sims, instrs := op()
	runtime.ReadMemStats(&ms1)
	m.AllocsPerOp = float64(ms1.Mallocs - ms0.Mallocs)

	best := time.Duration(0)
	for r := 0; r < Rounds; r++ {
		start := time.Now()
		sims, instrs = op()
		el := time.Since(start)
		if best == 0 || el < best {
			best = el
		}
	}
	m.NsPerOp = float64(best.Nanoseconds())
	sec := best.Seconds()
	if sec > 0 {
		m.SimsPerSec = float64(sims) / sec
		m.InstrsPerSec = float64(instrs) / sec
	}
	return m
}

// measureSweep regenerates every figure at the golden scale with a fresh
// Runner per op, so nothing is answered from a previous round's result
// memo. The runs do fork from the process-wide post-warmup checkpoint
// cache, deliberately: the untimed warmup op populates it, so the timed
// rounds measure the forked steady state a long-lived service settles
// into — warmup simulated once per configuration, measurement phases
// re-run in full.
func measureSweep() Metric {
	return measureOp(func() (int, uint64) {
		r := experiments.NewRunner(sweepScale)
		r.Jobs = 1 // sequential: comparable across machines with any core count
		r.All()
		return int(r.Simulations()), 0
	})
}

// measureFigureC1 builds Figure C1 alone under the same protocol as
// measureSweep — golden scale, a fresh Runner per op, Jobs=1 — so a
// regression in the multiprogrammed figure has its own name in the gate.
// The untimed warmup op leaves the figure's scheduler prefixes in the
// process-wide checkpoint cache; the timed rounds fork every run from them
// (each op still materializes its four traces into the fresh Runner).
func measureFigureC1() Metric {
	return measureOp(func() (int, uint64) {
		r := experiments.NewRunner(sweepScale)
		r.Jobs = 1
		if _, err := r.FigureC1(); err != nil {
			panic(err)
		}
		return 0, 0
	})
}

// measureSim runs one benchmark/scheme pair end to end.
func measureSim(scheme sim.SchemeRef, bench string) Metric {
	prof, ok := workload.ByName(bench)
	if !ok {
		panic("perf: unknown benchmark " + bench)
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = scheme
	return measureOp(func() (int, uint64) {
		res, err := sim.RunProfile(cfg, prof, probeScale)
		if err != nil {
			panic(err)
		}
		return 1, res.Instructions
	})
}

// measureLatency times one full-scale measured phase forked from a shared
// post-warmup checkpoint — the wall-clock a long-lived service pays for one
// uncached request: restore + RunMeasured on one settled system.
func measureLatency() Metric {
	prof, ok := workload.ByName("mcf")
	if !ok {
		panic("perf: unknown benchmark mcf")
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeOTPLRU
	recs, err := workload.Materialize(prof, latencyScale)
	if err != nil {
		panic(err)
	}
	warm := prof.WarmupRefs()
	if warm > len(recs) {
		warm = len(recs)
	}
	sys, err := sim.New(cfg)
	if err != nil {
		panic(err)
	}
	sys.RunWarmup(workload.Replay(recs[:warm]))
	cp, ok := sys.Checkpoint()
	if !ok {
		panic("perf: snc-lru checkpoint unavailable")
	}
	return measureOp(func() (int, uint64) {
		if err := sys.Restore(cp); err != nil {
			panic(err)
		}
		res := sys.RunMeasured(workload.Replay(recs[warm:]))
		return 1, res.Instructions
	})
}

// WriteFile stores the snapshot as deterministic, indented JSON.
func (s Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a snapshot written by WriteFile.
func Load(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return s, nil
}

// Names returns the snapshot's benchmark names, sorted.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the snapshot as a fixed-width table.
func (s Snapshot) String() string {
	out := fmt.Sprintf("%-18s %14s %12s %12s %14s\n", "benchmark", "ns/op", "allocs/op", "sims/sec", "instrs/sec")
	for _, name := range s.Names() {
		m := s[name]
		out += fmt.Sprintf("%-18s %14.0f %12.0f %12.1f %14.0f\n",
			name, m.NsPerOp, m.AllocsPerOp, m.SimsPerSec, m.InstrsPerSec)
	}
	return out
}

// Regression is one benchmark metric that got worse than the gate allows.
type Regression struct {
	Name  string  // benchmark
	Field string  // "ns/op" or "allocs/op"
	Base  float64 // merge-base value
	Cur   float64 // PR value
	Pct   float64 // relative change in percent
}

// String renders the regression for CI logs.
func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.0f -> %.0f (%+.1f%%)", r.Name, r.Field, r.Base, r.Cur, r.Pct)
}

// Compare gates cur against base: ns/op may grow by at most nsTol
// (fractional, e.g. 0.10 for ±10%), allocs/op may not grow at all.
// Benchmarks present only on one side are skipped — they have no
// comparable baseline. The result is sorted by benchmark name.
func Compare(base, cur Snapshot, nsTol float64) []Regression {
	var regs []Regression
	for _, name := range cur.Names() {
		b, ok := base[name]
		if !ok {
			continue
		}
		c := cur[name]
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+nsTol) {
			regs = append(regs, Regression{
				Name: name, Field: "ns/op", Base: b.NsPerOp, Cur: c.NsPerOp,
				Pct: 100 * (c.NsPerOp/b.NsPerOp - 1),
			})
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			pct := 0.0
			if b.AllocsPerOp > 0 {
				pct = 100 * (c.AllocsPerOp/b.AllocsPerOp - 1)
			}
			regs = append(regs, Regression{
				Name: name, Field: "allocs/op", Base: b.AllocsPerOp, Cur: c.AllocsPerOp, Pct: pct,
			})
		}
	}
	return regs
}
