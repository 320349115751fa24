// Command secsim runs benchmarks under a memory-protection scheme and
// prints the detailed simulation statistics.
//
// Usage:
//
//	secsim [-bench mcf] [-scheme snc-lru] [-scale 1.0] [-snc 64] [-ways 0]
//	       [-crypto 50] [-l2 256] [-l2ways 4] [-compare] [-jobs N]
//	       [-seq] [-stream] [-store DIR] [-list]
//	secsim -multi mcf,gzip [-quantum 100000] [-switch flush|pid] [...]
//	secsim -perf [-perfout BENCH.json]
//	secsim -perfcmp base.json,cur.json [-perftol 0.10]
//
// -scheme accepts any registered scheme reference — a name or alias from
// the scheme registry, optionally with parameters, e.g. "snc-lru" or
// "otp-mac:verify=blocking" (see -list). -bench accepts a single
// benchmark, a comma-separated list, or "all"; multi-benchmark runs fan
// out over the experiment layer's worker pool (-jobs, default GOMAXPROCS)
// and print in deterministic order. With -stream, each benchmark's result
// prints as an NDJSON line on stdout the moment its simulation completes
// (completion order, not request order) instead of a buffered report —
// incompatible with -compare and -multi. With -compare, every registered
// scheme runs per benchmark and a slowdown summary is printed (one
// benchmark's slice of the paper's Figure 5, extended to the full
// registry).
//
// With -store DIR, completed results are persisted under DIR (keyed by run
// configuration and the timing-model version): a later secsim or secsimd
// invocation pointed at the same directory answers repeated configurations
// from disk instead of re-simulating. Damaged entries fall back to
// recompute.
//
// With -multi, the named benchmarks are time-sliced through ONE machine
// (Section 4.3 multiprogramming): -quantum sets the slice length in
// instructions and -switch selects the scheme's context-switch policy —
// flush (option 1: flush-encrypt the SNC each switch) or pid (option 2:
// PID-tagged entries survive switches). Per-task slowdowns are reported
// against solo runs on the same configuration.
//
// With -perf, the internal/perf harness runs its fixed reduced-scale
// benchmark suite and prints the snapshot (optionally persisting it as
// JSON with -perfout). With -perfcmp base.json,cur.json, two snapshots are
// gated against each other — ns/op within -perftol, allocs/op zero
// tolerance — and the exit status is nonzero on regression; this is the
// comparison CI's bench-regression job runs.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"secureproc/internal/api"
	"secureproc/internal/core"
	"secureproc/internal/experiments"
	"secureproc/internal/perf"
	"secureproc/internal/sched"
	"secureproc/internal/sim"
	"secureproc/internal/stats"
	"secureproc/internal/store"
	"secureproc/internal/workload"
)

// printRegistry lists the registered schemes (with doc lines) and the
// benchmark names.
func printRegistry() {
	fmt.Println("schemes (use with -scheme; parameters as name:k=v,k=v):")
	for _, d := range core.Descriptors() {
		alias := ""
		if len(d.Aliases) > 0 {
			alias = " (alias " + strings.Join(d.Aliases, ", ") + ")"
		}
		fmt.Printf("  %-16s %s%s\n", d.Name, d.Doc, alias)
	}
	fmt.Println("benchmarks (use with -bench; comma-separated or \"all\"):")
	for _, n := range workload.BenchmarkNames {
		fmt.Printf("  %s\n", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// runMulti is the -multi entry point: time-slice the benchmarks through one
// machine under the scheme with the requested context-switch policy.
func runMulti(multi, scheme, switchPolicy string, switchSet bool, quantum uint64, scale float64,
	sncKB, ways int, crypto uint64, l2, l2ways int) {
	benches, err := experiments.ExpandBenches(multi)
	if err != nil {
		fatal(err)
	}
	if len(benches) < 2 {
		fatal(fmt.Errorf("-multi needs at least 2 benchmarks (got %d)", len(benches)))
	}
	// The switch policy rides as a registry parameter on the scheme; pass
	// it through ParseRef so "-scheme otp-mac:verify=blocking" composes.
	// An explicit switch= in the scheme reference wins over the flag's
	// default (conflicting explicit values are an error), and schemes
	// without per-process state (baseline, xom) run without a policy
	// unless the user explicitly demanded one.
	if _, err := core.ParseSwitchPolicy(switchPolicy); err != nil {
		fatal(err)
	}
	ref, err := sim.SchemeByName(scheme)
	if err != nil {
		fatal(err)
	}
	if prev, ok := ref.Params["switch"]; ok {
		if switchSet && prev != switchPolicy {
			fatal(fmt.Errorf("scheme %q says switch=%s but -switch says %s", scheme, prev, switchPolicy))
		}
	} else {
		withSwitch := ref
		withSwitch.Params = sim.SchemeParams{"switch": switchPolicy}
		for k, v := range ref.Params {
			withSwitch.Params[k] = v
		}
		if _, err := core.LookupRef(withSwitch); err == nil {
			ref = withSwitch
		} else if switchSet {
			fatal(fmt.Errorf("scheme %q does not support -switch: %w", scheme, err))
		}
	}
	if _, err := core.LookupRef(ref); err != nil {
		fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = ref
	cfg.SNC.SizeBytes = sncKB << 10
	cfg.SNC.Ways = ways
	cfg.Crypto.Latency = crypto
	cfg.L2.SizeBytes = l2 << 10
	cfg.L2.Ways = l2ways
	start := time.Now()
	res, err := sched.RunBenchmarks(sched.Config{Sim: cfg, Quantum: quantum, Scale: scale}, benches)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Fprintf(os.Stderr, "(%d tasks, %.1fs)\n", len(benches), time.Since(start).Seconds())
}

func main() {
	bench := flag.String("bench", "mcf", `benchmark name, comma-separated list, or "all" (see -list)`)
	scheme := flag.String("scheme", "snc-lru", "protection scheme reference (see -list)")
	scale := flag.Float64("scale", 1.0, "workload scale")
	sncKB := flag.Int("snc", 64, "SNC size in KB")
	ways := flag.Int("ways", 0, "SNC associativity (0 = fully associative)")
	crypto := flag.Uint64("crypto", 50, "crypto unit latency in cycles")
	l2 := flag.Int("l2", 256, "L2 size in KB")
	l2ways := flag.Int("l2ways", 4, "L2 associativity")
	compare := flag.Bool("compare", false, "run every registered scheme and print slowdowns")
	multi := flag.String("multi", "", "time-slice these benchmarks (comma-separated, ≥2) through one machine")
	quantum := flag.Uint64("quantum", sched.DefaultQuantum, "multiprogramming time slice in instructions")
	switchPolicy := flag.String("switch", "flush", "context-switch policy for -multi: flush or pid (§4.3)")
	perfMode := flag.Bool("perf", false, "run the perf harness and print its snapshot")
	perfOut := flag.String("perfout", "", "with -perf: also write the snapshot JSON to this file")
	perfCmp := flag.String("perfcmp", "", "compare two perf snapshots \"base.json,cur.json\"; exit 1 on regression")
	perfTol := flag.Float64("perftol", 0.10, "ns/op regression tolerance for -perfcmp (fraction)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	seq := flag.Bool("seq", false, "run simulations sequentially (same as -jobs 1)")
	streamOut := flag.Bool("stream", false, "print each result as an NDJSON line the moment it completes")
	storeDir := flag.String("store", "", "persist results in this directory across runs (empty = off)")
	list := flag.Bool("list", false, "list registered schemes and benchmarks, then exit")
	listBench := flag.Bool("listbench", false, "list benchmarks and exit")
	flag.Parse()

	switchSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "switch" {
			switchSet = true
		}
	})

	if *perfMode {
		s := perf.Collect()
		fmt.Print(s.String())
		if *perfOut != "" {
			if err := s.WriteFile(*perfOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "snapshot written to %s\n", *perfOut)
		}
		return
	}
	if *perfCmp != "" {
		parts := strings.Split(*perfCmp, ",")
		if len(parts) != 2 {
			fatal(fmt.Errorf("-perfcmp wants \"base.json,cur.json\", got %q", *perfCmp))
		}
		base, err := perf.Load(strings.TrimSpace(parts[0]))
		if err != nil {
			fatal(err)
		}
		cur, err := perf.Load(strings.TrimSpace(parts[1]))
		if err != nil {
			fatal(err)
		}
		regs := perf.Compare(base, cur, *perfTol)
		if len(regs) == 0 {
			fmt.Printf("no regressions (%d benchmarks, ns/op tolerance %.0f%%, allocs/op zero-tolerance)\n",
				len(cur), *perfTol*100)
			return
		}
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		os.Exit(1)
	}
	if *list {
		printRegistry()
		return
	}
	if *listBench {
		for _, n := range workload.BenchmarkNames {
			fmt.Println(n)
		}
		return
	}
	if *streamOut && (*compare || *multi != "") {
		fatal(fmt.Errorf("-stream streams per-benchmark sweep results; it is incompatible with -compare and -multi"))
	}
	if *multi != "" {
		runMulti(*multi, *scheme, *switchPolicy, switchSet, *quantum, *scale, *sncKB, *ways, *crypto, *l2, *l2ways)
		return
	}
	benches, err := experiments.ExpandBenches(*bench)
	if err != nil {
		fatal(err)
	}
	runner := experiments.NewRunner(*scale)
	runner.Jobs = *jobs
	if *seq {
		runner.Jobs = 1
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, sim.TimingModelVersion)
		if err != nil {
			fatal(err)
		}
		runner.Store = st
	}
	mkSpec := func(b string, ref sim.SchemeRef) experiments.Spec {
		return experiments.Spec{
			Bench: b, Scheme: ref,
			SNCKB: *sncKB, SNCWays: *ways,
			L2KB: *l2, L2Ways: *l2ways,
			CryptoLat: *crypto,
		}
	}
	start := time.Now()

	if *compare {
		var schemes []sim.SchemeRef
		for _, n := range sim.SchemeNames() {
			if n != sim.SchemeBaseline.Name {
				schemes = append(schemes, sim.SchemeRef{Name: n})
			}
		}
		var specs []experiments.Spec
		for _, b := range benches {
			specs = append(specs, mkSpec(b, sim.SchemeBaseline))
			for _, ref := range schemes {
				specs = append(specs, mkSpec(b, ref))
			}
		}
		if err := runner.Sweep(context.Background(), specs); err != nil {
			fatal(err)
		}
		for _, b := range benches {
			base, err := runner.Run(mkSpec(b, sim.SchemeBaseline))
			if err != nil {
				fatal(err)
			}
			t := stats.NewTable(fmt.Sprintf("%s (scale %.2f, crypto %d cy)", b, *scale, *crypto),
				"scheme", "cycles", "IPC", "slowdown%", "snc-traffic%", "mac-traffic%")
			t.AddRow("baseline", fmt.Sprint(base.Cycles), fmt.Sprintf("%.2f", base.IPC()), "0.00", "-", "-")
			for _, ref := range schemes {
				r, err := runner.Run(mkSpec(b, ref))
				if err != nil {
					fatal(err)
				}
				t.AddRow(r.Scheme, fmt.Sprint(r.Cycles), fmt.Sprintf("%.2f", r.IPC()),
					fmt.Sprintf("%.2f", sim.Slowdown(r, base)),
					fmt.Sprintf("%.2f", stats.Pct(r.SNCTraffic(), r.DemandTraffic())),
					fmt.Sprintf("%.2f", stats.Pct(r.MACTraffic(), r.DemandTraffic())))
			}
			fmt.Print(t.String())
		}
		printDispatch(runner)
		fmt.Fprintf(os.Stderr, "(%d simulations, %.1fs)\n", runner.Simulations(), time.Since(start).Seconds())
		return
	}

	ref, err := sim.SchemeByName(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr)
		printRegistry()
		os.Exit(1)
	}
	specs := make([]experiments.Spec, len(benches))
	for i, b := range benches {
		specs[i] = mkSpec(b, ref)
	}
	if *streamOut {
		// One NDJSON line per completed simulation, in completion order,
		// using the same api.StreamLine shape secsimd streams; index maps
		// each line back to the -bench list.
		enc := json.NewEncoder(os.Stdout)
		err := runner.SweepEach(context.Background(), specs, func(i int, res sim.Result, err error) {
			line := api.StreamLine{Index: i, Spec: api.SpecOf(specs[i])}
			if err != nil {
				line.Error = err.Error()
			} else {
				line.Result = &res
			}
			enc.Encode(line) //nolint:errcheck // stdout
		})
		if err != nil {
			fatal(err)
		}
		printDispatch(runner)
		if len(benches) > 1 {
			fmt.Fprintf(os.Stderr, "(%d simulations, %.1fs)\n", runner.Simulations(), time.Since(start).Seconds())
		}
		return
	}
	if err := runner.Sweep(context.Background(), specs); err != nil {
		fatal(err)
	}
	for i, b := range benches {
		r, err := runner.Run(specs[i])
		if err != nil {
			fatal(err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("benchmark:      %s\n", b)
		fmt.Printf("scheme:         %s\n", r.Scheme)
		fmt.Printf("cycles:         %d\n", r.Cycles)
		fmt.Printf("instructions:   %d (IPC %.2f)\n", r.Instructions, r.IPC())
		fmt.Printf("L1D misses:     %d\n", r.L1DMisses)
		fmt.Printf("L1I misses:     %d\n", r.L1IMisses)
		fmt.Printf("L2 misses:      %d (hit rate %.1f%%)\n", r.L2Misses,
			stats.Pct(r.L2Hits, r.L2Hits+r.L2Misses))
		fmt.Printf("bus: fills=%d writebacks=%d seqfetch=%d seqspill=%d\n",
			r.LineFills, r.Writebacks, r.SeqNumFetches, r.SeqNumSpills)
		if r.SNCQueryHits+r.SNCQueryMisses > 0 {
			fmt.Printf("SNC: query %d/%d hits, update %d/%d hits, traffic %.2f%% of demand\n",
				r.SNCQueryHits, r.SNCQueryHits+r.SNCQueryMisses,
				r.SNCUpdateHits, r.SNCUpdateHits+r.SNCUpdateMiss,
				stats.Pct(r.SNCTraffic(), r.DemandTraffic()))
		}
		if r.IntegrityVerified > 0 {
			fmt.Printf("integrity: %d lines verified, mac-fetch=%d mac-update=%d (%.2f%% of demand), verify-lag %d cycles\n",
				r.IntegrityVerified, r.MACFetches, r.MACUpdates,
				stats.Pct(r.MACTraffic(), r.DemandTraffic()), r.IntegrityStallCycles)
		}
		fmt.Printf("stalls: rob=%d mshr=%d dep=%d\n", r.ROBStallCycles, r.MSHRStallCycles, r.DepStallCycles)
	}
	printDispatch(runner)
	if len(benches) > 1 {
		fmt.Fprintf(os.Stderr, "(%d simulations, %.1fs)\n", runner.Simulations(), time.Since(start).Seconds())
	}
}

// printDispatch reports the dispatch layer's counters on stderr after a
// multi-spec run, in the same api.DispatchMetrics shape secsimd exports on
// /metrics. Silent when the dispatcher never engaged — single-spec
// sequential runs stay dispatcher-free and print nothing.
func printDispatch(r *experiments.Runner) {
	q := r.DispatchStats()
	if q.Submitted == 0 {
		return
	}
	b, err := json.Marshal(api.DispatchMetrics{Queue: q})
	if err != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "(dispatch: %s)\n", b)
}
