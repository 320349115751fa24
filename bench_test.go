package secureproc_test

// One benchmark per paper figure: each regenerates the figure's data series
// (at reduced workload scale) and reports the headline aggregate the paper
// quotes, so `go test -bench=.` replays the entire evaluation. Simulation
// runs are memoized in a shared runner, mirroring how the figures share
// configurations in the paper.

import (
	"flag"
	"sync"
	"testing"

	"secureproc"
	"secureproc/internal/core"
	"secureproc/internal/crypto/engine"
	"secureproc/internal/experiments"
	"secureproc/internal/integrity"
	"secureproc/internal/mem"
	"secureproc/internal/sim"
	"secureproc/internal/snc"
	"secureproc/internal/workload"
)

// benchScale trades fidelity for speed in the bench harness; cmd/figures
// defaults to 1.0. Override per invocation with
// `go test -bench . -benchscale 0.5`.
var benchScale = flag.Float64("benchscale", 0.15, "workload scale for the figure benchmarks")

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

func sharedRunner() *experiments.Runner {
	runnerOnce.Do(func() { runner = experiments.NewRunner(*benchScale) })
	return runner
}

func reportSeries(b *testing.B, fr experiments.FigureResult) {
	b.Helper()
	for _, s := range fr.Measured {
		b.ReportMetric(s.Mean(), metricName(s.Name)+"-avg%")
	}
}

// metricNames caches sanitized series names: the same handful of series
// labels recur across every figure benchmark iteration, so each is
// sanitized once instead of being rebuilt rune-by-rune per report.
var metricNames sync.Map // raw name -> sanitized string

// metricName strips whitespace and parentheses (ReportMetric units must not
// contain whitespace), memoizing the result.
func metricName(name string) string {
	if v, ok := metricNames.Load(name); ok {
		return v.(string)
	}
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch r {
		case ' ', '(', ')':
		default:
			out = append(out, r)
		}
	}
	sanitized := string(out)
	metricNames.Store(name, sanitized)
	return sanitized
}

func BenchmarkFig3XOMSlowdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sharedRunner().Figure3()
		if i == b.N-1 {
			reportSeries(b, fr)
		}
	}
}

func BenchmarkFig5SchemeComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sharedRunner().Figure5()
		if i == b.N-1 {
			reportSeries(b, fr)
		}
	}
}

func BenchmarkFig6SNCSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sharedRunner().Figure6()
		if i == b.N-1 {
			reportSeries(b, fr)
		}
	}
}

func BenchmarkFig7SNCAssoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sharedRunner().Figure7()
		if i == b.N-1 {
			reportSeries(b, fr)
		}
	}
}

func BenchmarkFig8LargerL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sharedRunner().Figure8()
		if i == b.N-1 {
			reportSeries(b, fr)
		}
	}
}

func BenchmarkFig9Traffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sharedRunner().Figure9()
		if i == b.N-1 {
			reportSeries(b, fr)
		}
	}
}

func BenchmarkFig10CryptoLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sharedRunner().Figure10()
		if i == b.N-1 {
			reportSeries(b, fr)
		}
	}
}

// --- Ablation benches (DESIGN.md Section 6) ---

func ablationRun(b *testing.B, bench string, mutate func(*sim.Config)) sim.Result {
	b.Helper()
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeOTPLRU
	if mutate != nil {
		mutate(&cfg)
	}
	prof, ok := workload.ByName(bench)
	if !ok {
		b.Fatalf("unknown benchmark %s", bench)
	}
	r, err := sim.RunProfile(cfg, prof, *benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationSNCPolicy compares LRU vs NoReplacement on the benchmark
// where the gap is largest (gcc).
func BenchmarkAblationSNCPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, _ := secureproc.RunBenchmark("gcc", secureproc.Baseline, *benchScale)
		lru, _ := secureproc.RunBenchmark("gcc", secureproc.OTPLRU, *benchScale)
		nr, _ := secureproc.RunBenchmark("gcc", secureproc.OTPNoRepl, *benchScale)
		if i == b.N-1 {
			b.ReportMetric(sim.Slowdown(lru, base), "lru-slowdown-%")
			b.ReportMetric(sim.Slowdown(nr, base), "norepl-slowdown-%")
		}
	}
}

// BenchmarkAblationWriteBuffer sweeps write-buffer depth on the most
// store-heavy workload (vpr).
func BenchmarkAblationWriteBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var last float64
		for _, depth := range []int{1, 2, 8, 32} {
			r := ablationRun(b, "vpr", func(c *sim.Config) { c.WriteBufferDepth = depth })
			last = float64(r.Cycles)
			if i == b.N-1 {
				b.ReportMetric(last, "cycles-wb"+itoa(depth))
			}
		}
	}
}

// BenchmarkAblationMLP sweeps MSHR count on the high-MLP streaming workload
// (art): fewer MSHRs serialize misses and inflate everything.
func BenchmarkAblationMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mshrs := range []int{1, 2, 4, 8, 16} {
			r := ablationRun(b, "art", func(c *sim.Config) { c.CPU.MSHRs = mshrs })
			if i == b.N-1 {
				b.ReportMetric(float64(r.Cycles), "cycles-mshr"+itoa(mshrs))
			}
		}
	}
}

// BenchmarkAblationCryptoII shows the value of a fully pipelined crypto
// unit: initiation interval 1 vs a non-pipelined 50-cycle unit.
func BenchmarkAblationCryptoII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ii := range []uint64{1, 10, 50} {
			r := ablationRun(b, "art", func(c *sim.Config) { c.Crypto.InitiationInterval = ii })
			if i == b.N-1 {
				b.ReportMetric(float64(r.Cycles), "cycles-ii"+itoa(int(ii)))
			}
		}
	}
}

// BenchmarkAblationSNCEntryWidth sweeps sequence-number width (entry bytes):
// wider entries postpone wraparound but halve coverage per KB.
func BenchmarkAblationSNCEntryWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, eb := range []int{2, 4} {
			r := ablationRun(b, "mcf", func(c *sim.Config) { c.SNC.EntryBytes = eb })
			if i == b.N-1 {
				b.ReportMetric(float64(r.SNCQueryMisses), "qmiss-entry"+itoa(eb)+"B")
			}
		}
	}
}

// BenchmarkAblationMemLatency sweeps DRAM latency: the *relative* cost of
// XOM's serial crypto grows as memory gets faster (a fixed 50-cycle unit
// atop a 60-cycle miss is an 83% latency tax; atop 200 cycles, 25%), while
// OTP stays near zero everywhere — MAX(mem,crypto)+1 tracks the larger
// term.
func BenchmarkAblationMemLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, lat := range []uint64{60, 100, 200} {
			prof, _ := workload.ByName("art")
			mk := func(k sim.SchemeRef) sim.Result {
				cfg := sim.DefaultConfig()
				cfg.Scheme = k
				cfg.DRAM.AccessLatency = lat
				r, err := sim.RunProfile(cfg, prof, *benchScale)
				if err != nil {
					b.Fatal(err)
				}
				return r
			}
			base := mk(sim.SchemeBaseline)
			xom := mk(sim.SchemeXOM)
			otp := mk(sim.SchemeOTPLRU)
			if i == b.N-1 {
				b.ReportMetric(sim.Slowdown(xom, base), "xom%-mem"+itoa(int(lat)))
				b.ReportMetric(sim.Slowdown(otp, base), "otp%-mem"+itoa(int(lat)))
			}
		}
	}
}

// BenchmarkContextSwitchFlush measures Section 4.3's SNC-flush cost for the
// three paper SNC sizes: the cycles to encrypt and spill every live
// sequence number on a task switch.
func BenchmarkContextSwitchFlush(b *testing.B) {
	for _, kb := range []int{32, 64, 128} {
		kb := kb
		b.Run("snc"+itoa(kb)+"KB", func(b *testing.B) {
			var flushCycles uint64
			for i := 0; i < b.N; i++ {
				bus := mem.NewBus(mem.DefaultDRAMConfig())
				wbuf := mem.NewWriteBuffer(8)
				eng := engine.New(engine.DefaultConfig())
				cfg := snc.DefaultConfig()
				cfg.SizeBytes = kb << 10
				o := core.NewOTP(bus, wbuf, eng, snc.New(cfg))
				// Fill the SNC completely, then switch.
				for e := 0; e < cfg.Entries(); e++ {
					o.SNC().Install(uint64(e)*128, 1)
				}
				flushCycles = o.ContextSwitch(0, 1)
			}
			b.ReportMetric(float64(flushCycles), "flush-cycles")
		})
	}
}

// BenchmarkHashTreeVerify measures the integrity substrate: per-line
// verification cost with and without the Gassend-style node cache.
func BenchmarkHashTreeVerify(b *testing.B) {
	tree, err := integrity.NewHashTree([]byte("k"), 128, 4096)
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, 128)
	proof, _ := tree.Proof(17)
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := tree.Verify(17, line, proof); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cv := integrity.NewCachedVerifier(tree, 1024)
		for i := 0; i < b.N; i++ {
			if err := cv.Verify(17, line, proof); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorThroughput measures raw simulator speed (references per
// second) — the cost of the reproduction itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, _ := workload.ByName("vpr")
	cfg := sim.DefaultConfig()
	cfg.Scheme = sim.SchemeOTPLRU
	cfg.SNC.Ways = 32 // avoid the fully associative scan cost
	b.ResetTimer()
	refs := 0
	for i := 0; i < b.N; i++ {
		r, err := sim.RunProfile(cfg, prof, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		refs += int(r.Instructions)
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "instrs/s")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkPadCipher compares the functional pad generators (DES 8B blocks
// vs AES-128 16B blocks): AES halves the per-line block count at a higher
// per-block cost.
func BenchmarkPadCipher(b *testing.B) {
	for _, tc := range []struct {
		name string
		kind secureproc.CipherKind
		klen int
	}{
		{"des", secureproc.CipherDES, 8},
		{"aes128", secureproc.CipherAES, 16},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			pm, err := secureproc.NewProtectedMemory(tc.kind, make([]byte, tc.klen), 128)
			if err != nil {
				b.Fatal(err)
			}
			line := make([]byte, 128)
			b.SetBytes(128)
			for i := 0; i < b.N; i++ {
				// Cycle over 1024 lines: one line's 16-bit sequence space
				// runs out after 65535 writes, and the writes then fall back
				// to direct encryption.
				va := 0x1000 + uint64(i%1024)*128
				if err := pm.WriteLineOTP(va, line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
