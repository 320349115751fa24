package sched

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// testConfig is a small, fast multiprogram configuration.
func testConfig(t *testing.T, scheme string, quantum uint64) Config {
	t.Helper()
	ref, err := sim.SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Scheme = ref
	return Config{Sim: cfg, Quantum: quantum, Scale: 0.02}
}

func TestRunRequiresTwoTasks(t *testing.T) {
	if _, err := RunBenchmarks(testConfig(t, "snc-lru", 10_000), []string{"mcf"}); err == nil {
		t.Error("single-task run accepted")
	}
	if _, err := RunBenchmarks(testConfig(t, "snc-lru", 10_000), []string{"mcf", "nosuch"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRoundRobinSlicing(t *testing.T) {
	r, err := RunBenchmarks(testConfig(t, "snc-lru", 10_000), []string{"mcf", "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(r.Tasks))
	}
	if r.Switches == 0 {
		t.Fatal("no switches in a two-task run")
	}
	for _, task := range r.Tasks {
		if task.Slices < 2 {
			t.Errorf("%s got %d slices, want interleaving", task.Bench, task.Slices)
		}
		if task.Instructions == 0 || task.Cycles == 0 {
			t.Errorf("%s retired nothing", task.Bench)
		}
		if task.SoloCycles == 0 {
			t.Errorf("%s has no solo baseline", task.Bench)
		}
		// Miss-dominated tasks can land within attribution noise of solo
		// (resumed dependent loads find their data already arrived), but
		// nothing should get meaningfully *faster* from being time-sliced.
		if task.SlowdownPct < -1.0 {
			t.Errorf("%s multiprogrammed run much faster than solo (%.2f%%)",
				task.Bench, task.SlowdownPct)
		}
	}
	// The cache-friendly task pays for the invalidations: gzip's hot set is
	// L2-resident solo, and every switch tears it down.
	for _, task := range r.Tasks {
		if task.Bench == "gzip" && task.SlowdownPct < 10 {
			t.Errorf("gzip slowdown = %.2f%%, want a substantial invalidation penalty", task.SlowdownPct)
		}
	}
	// Cycle accounting: task slices plus switch time cover the whole run.
	sum := r.SwitchCycles
	for _, task := range r.Tasks {
		sum += task.Cycles
	}
	if sum != r.TotalCycles {
		t.Errorf("cycles don't add up: tasks+switches = %d, total = %d", sum, r.TotalCycles)
	}
}

func TestShorterQuantumSwitchesMore(t *testing.T) {
	short, err := RunBenchmarks(testConfig(t, "snc-lru", 5_000), []string{"mcf", "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunBenchmarks(testConfig(t, "snc-lru", 50_000), []string{"mcf", "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if short.Switches <= long.Switches {
		t.Errorf("quantum 5K: %d switches, quantum 50K: %d — shorter slices must switch more",
			short.Switches, long.Switches)
	}
	if short.SwitchSeqSpills <= long.SwitchSeqSpills {
		t.Errorf("flush spill traffic must grow with switch rate (%d vs %d)",
			short.SwitchSeqSpills, long.SwitchSeqSpills)
	}
}

// TestFlushVsPIDPolicies is the §4.3 claim end to end: option 1 pays spill
// traffic at every switch, option 2 pays none.
func TestFlushVsPIDPolicies(t *testing.T) {
	flush, err := RunBenchmarks(testConfig(t, "snc-lru:switch=flush", 10_000), []string{"mcf", "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := RunBenchmarks(testConfig(t, "snc-lru:switch=pid", 10_000), []string{"mcf", "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if flush.Policy != "flush" || pid.Policy != "pid" {
		t.Fatalf("policy labels = %q, %q", flush.Policy, pid.Policy)
	}
	if flush.SwitchSeqSpills == 0 {
		t.Error("flush policy produced no switch-induced spill traffic")
	}
	if pid.SwitchSeqSpills != 0 {
		t.Errorf("pid policy produced %d switch-induced spills, want 0", pid.SwitchSeqSpills)
	}
	if flush.Switches != pid.Switches {
		t.Errorf("switch counts differ: %d vs %d (policies must not change scheduling)",
			flush.Switches, pid.Switches)
	}
}

// TestBaselineSchemeSwitches checks schemes without per-process state still
// pay the cache invalidation but have no SNC policy.
func TestBaselineSchemeSwitches(t *testing.T) {
	r, err := RunBenchmarks(testConfig(t, "baseline", 10_000), []string{"mcf", "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != "-" {
		t.Errorf("baseline policy label = %q, want -", r.Policy)
	}
	if r.SwitchWritebacks == 0 {
		t.Error("switch invalidations must write back dirty lines even for baseline")
	}
	if r.SwitchSeqSpills != 0 {
		t.Error("baseline has no SNC to spill")
	}
}

// TestDeterminism: identical configurations produce identical results —
// the property the Figure C1 golden depends on.
func TestDeterminism(t *testing.T) {
	run := func() Result {
		r, err := RunBenchmarks(testConfig(t, "snc-lru:switch=pid", 10_000), []string{"art", "vpr"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("nondeterministic results:\n%+v\n%+v", a, b)
	}
	if a.Render() != b.Render() {
		t.Error("nondeterministic rendering")
	}
}

// TestConcurrentRunsShareNothing drives several multiprogrammed runs in
// parallel (the shape cmd/figures uses); run with -race in CI.
func TestConcurrentRunsShareNothing(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]Result, 4)
	schemes := []string{"snc-lru:switch=flush", "snc-lru:switch=pid", "snc-norepl", "xom"}
	for i, s := range schemes {
		wg.Add(1)
		go func(i int, s string) {
			defer wg.Done()
			r, err := RunBenchmarks(testConfig(t, s, 10_000), []string{"mcf", "gzip"})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i, s)
	}
	wg.Wait()
	// Cross-check against sequential reruns.
	for i, s := range schemes {
		want, err := RunBenchmarks(testConfig(t, s, 10_000), []string{"mcf", "gzip"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("%s: concurrent result differs from sequential", s)
		}
	}
}

func TestRenderMentionsEveryTask(t *testing.T) {
	r, err := RunBenchmarks(testConfig(t, "snc-lru", 10_000), []string{"mcf", "gzip"})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"mcf", "gzip", "switches:", "slowdown%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// traces materializes benches at scale for the replay entry points.
func traces(t *testing.T, scale float64, benches ...string) []Trace {
	t.Helper()
	out := make([]Trace, len(benches))
	for i, b := range benches {
		prof, ok := workload.ByName(b)
		if !ok {
			t.Fatalf("unknown benchmark %q", b)
		}
		tr, err := materialize(prof, scale)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tr
	}
	return out
}

// TestPrefixResumesAcrossScales is the forking property Figure C1 relies
// on: a prefix captured at one scale, restored into a run at another,
// reproduces that run's straight-through Result exactly — for both switch
// policies and a scheme without per-process state, at both figure quanta.
// Capturing must not perturb the run that captures.
func TestPrefixResumesAcrossScales(t *testing.T) {
	const small, large = 0.02, 0.05
	for _, scheme := range []string{"snc-lru:switch=flush", "snc-lru:switch=pid", "baseline"} {
		for _, quantum := range []uint64{10_000, 50_000} {
			for _, pair := range [][]string{{"mcf", "gzip"}, {"art", "vpr"}} {
				cfg := testConfig(t, scheme, quantum)
				cfg.SkipSolo = true
				name := fmt.Sprintf("%s/q%d/%s", scheme, quantum, strings.Join(pair, "+"))
				t.Run(name, func(t *testing.T) {
					smallTr, largeTr := traces(t, small, pair...), traces(t, large, pair...)
					want, _, err := run(cfg, smallTr, nil, false)
					if err != nil {
						t.Fatal(err)
					}
					got, smallP, err := RunTraces(cfg, smallTr, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("capturing run diverged from straight-through:\n got %+v\nwant %+v", got, want)
					}
					wantLarge, largeP, err := RunTraces(cfg, largeTr, nil)
					if err != nil {
						t.Fatal(err)
					}
					if smallP == nil || largeP == nil {
						t.Fatal("snapshottable scheme captured no prefix")
					}
					// Each scale resumes the other scale's prefix; the two
					// small-scale restores share one prefix concurrently
					// (a prefix is shared, never written).
					var wg sync.WaitGroup
					res := make([]Result, 3)
					errs := make([]error, 3)
					for i := range res {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if i == 0 {
								res[i], _, errs[i] = RunTraces(cfg, largeTr, smallP)
							} else {
								res[i], _, errs[i] = RunTraces(cfg, smallTr, largeP)
							}
						}()
					}
					wg.Wait()
					for i, w := range []Result{wantLarge, want, want} {
						if errs[i] != nil {
							t.Fatal(errs[i])
						}
						if !reflect.DeepEqual(res[i], w) {
							t.Errorf("restored run %d diverged:\n got %+v\nwant %+v", i, res[i], w)
						}
					}
				})
			}
		}
	}
}

// TestPrefixRejectsOtherRuns checks a prefix only resumes the run it was
// captured from: other tasks, another order or another quantum fail.
func TestPrefixRejectsOtherRuns(t *testing.T) {
	cfg := testConfig(t, "snc-lru", 10_000)
	cfg.SkipSolo = true
	_, p, err := RunTraces(cfg, traces(t, 0.02, "mcf", "gzip"), nil)
	if err != nil || p == nil {
		t.Fatalf("capture: prefix %v, err %v", p, err)
	}
	if _, _, err := RunTraces(cfg, traces(t, 0.02, "gzip", "mcf"), p); err == nil {
		t.Error("prefix resumed a run with the tasks swapped")
	}
	if _, _, err := RunTraces(cfg, traces(t, 0.02, "mcf"), p); err == nil {
		t.Error("prefix resumed a one-task run")
	}
	cfg.Quantum = 50_000
	if _, _, err := RunTraces(cfg, traces(t, 0.02, "mcf", "gzip"), p); err == nil {
		t.Error("prefix resumed a run at another quantum")
	}
}

// TestOneTaskRunIsSolo pins the solo baseline to its definition: one
// workload stepped straight through on a fresh machine, then drained. The
// one-task scheduler run (Solo, and RunTraces resumed from a prefix) must
// report exactly that cycle count.
func TestOneTaskRunIsSolo(t *testing.T) {
	for _, scheme := range []string{"snc-lru:switch=pid", "baseline"} {
		for _, bench := range []string{"mcf", "gzip"} {
			cfg := testConfig(t, scheme, 0)
			trs := traces(t, cfg.Scale, bench)
			sys, err := sim.New(cfg.Sim)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range trs[0].Recs {
				sys.Step(rec)
			}
			sys.Drain()
			want := sys.Cycles()

			solo, err := Solo(cfg.Sim, bench, cfg.Scale)
			if err != nil {
				t.Fatal(err)
			}
			cfg.SkipSolo = true
			cold, p, err := RunTraces(cfg, trs, nil)
			if err != nil {
				t.Fatal(err)
			}
			forked, _, err := RunTraces(cfg, trs, p)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]uint64{"Solo": solo, "cold": cold.TotalCycles, "forked": forked.TotalCycles} {
				if got != want {
					t.Errorf("%s/%s: %s run = %d cycles, straight step-then-drain = %d", scheme, bench, name, got, want)
				}
			}
		}
	}
}
