package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"secureproc/internal/sched"
	"secureproc/internal/sim"
	"secureproc/internal/store"
	"secureproc/internal/workload"
)

// cpScale keeps the equivalence sweeps quick; the properties under test
// (checkpoint forking, store warm starts) are scale-independent.
const cpScale = 0.02

// straightThrough simulates one spec with a bare sim.System — no memo, no
// checkpoint cache — as the ground truth Runner.Run must match.
func straightThrough(t *testing.T, r *Runner, sp Spec) sim.Result {
	t.Helper()
	prof, ok := workload.ByName(sp.Bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", sp.Bench)
	}
	recs, err := workload.Materialize(prof, r.Scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := r.config(sp.key())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := prof.WarmupRefs()
	if warm > len(recs) {
		warm = len(recs)
	}
	return sys.Run(workload.Replay(recs), warm)
}

// TestRunnerMatchesStraightThrough is the end-to-end checkpoint-equivalence
// property: whether a Runner's simulation warms up from scratch (and leaves
// a checkpoint behind) or forks from the process-wide checkpoint cache —
// populated by an earlier Runner, possibly at a different scale — the Result
// must be identical to a bare straight-through simulation.
func TestRunnerMatchesStraightThrough(t *testing.T) {
	specs := []Spec{
		DefaultSpec("gzip", sim.SchemeOTPLRU),
		DefaultSpec("mcf", sim.SchemeOTPMAC),
		DefaultSpec("art", sim.SchemeXOM),
	}
	for _, sp := range specs {
		cold := NewRunner(cpScale)
		want := straightThrough(t, cold, sp)
		got, err := cold.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s/%s: first Runner.Run diverged from straight-through:\n got %+v\nwant %+v",
				sp.Bench, sp.Scheme.Canonical(), got, want)
		}
		// A second Runner is guaranteed to find the checkpoint the first one
		// left (its own memo is empty, so it simulates again — forked).
		before := CheckpointCacheStats()
		warm := NewRunner(cpScale)
		got2, err := warm.Run(sp)
		if err != nil {
			t.Fatal(err)
		}
		if got2 != want {
			t.Errorf("%s/%s: forked Runner.Run diverged from straight-through:\n got %+v\nwant %+v",
				sp.Bench, sp.Scheme.Canonical(), got2, want)
		}
		if after := CheckpointCacheStats(); after.Hits <= before.Hits {
			t.Errorf("%s/%s: second Runner did not fork from the checkpoint cache (hits %d -> %d)",
				sp.Bench, sp.Scheme.Canonical(), before.Hits, after.Hits)
		}
		if warm.Simulations() != 1 {
			t.Errorf("forked Runner ran %d simulations, want 1", warm.Simulations())
		}
	}
}

// TestForkedFiguresByteIdentical renders every figure through two
// independent Runners: the second answers nothing from its own memo, so its
// measurement runs fork from the checkpoints of the first wherever possible.
// Every rendered table must come out byte-identical.
func TestForkedFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	r1 := NewRunner(cpScale)
	r1.Jobs = 4
	first := r1.All()
	r2 := NewRunner(cpScale)
	r2.Jobs = 4
	second := r2.All()
	if len(first) != len(second) {
		t.Fatalf("figure counts differ: %d vs %d", len(first), len(second))
	}
	names := Names()
	for i := range first {
		if a, b := first[i].Render(), second[i].Render(); a != b {
			t.Errorf("%s: forked rerun rendered differently\nfirst:\n%s\nsecond:\n%s", names[i], a, b)
		}
	}
}

// TestRunnerStoreWarmStart covers the persistence tentpole at the Runner
// level: a second Runner over the same store directory answers from disk
// without simulating, and a damaged entry degrades to recompute — with the
// same Result — rather than serving garbage or failing.
func TestRunnerStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	sp := DefaultSpec("gzip", sim.SchemeOTPLRU)

	st1, err := store.Open(dir, sim.TimingModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(cpScale)
	r1.Store = st1
	want, err := r1.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if s := st1.Stats(); s.Writes != 1 || s.Misses != 1 {
		t.Fatalf("first run store stats = %+v, want 1 miss + 1 write", s)
	}

	// Cold process, warm disk: no simulation at all.
	st2, err := store.Open(dir, sim.TimingModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(cpScale)
	r2.Store = st2
	got, err := r2.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("stored result differs:\n got %+v\nwant %+v", got, want)
	}
	if r2.Simulations() != 0 {
		t.Errorf("warm-started Runner ran %d simulations, want 0", r2.Simulations())
	}
	if s := st2.Stats(); s.Hits != 1 {
		t.Errorf("warm start store stats = %+v, want 1 hit", s)
	}

	// Damage the entry: the next cold Runner must recompute gracefully.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("entry files = %v (err %v), want exactly 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(dir, sim.TimingModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(cpScale)
	r3.Store = st3
	got3, err := r3.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got3 != want {
		t.Errorf("recomputed result differs:\n got %+v\nwant %+v", got3, want)
	}
	if r3.Simulations() != 1 {
		t.Errorf("Runner over a corrupt store ran %d simulations, want 1", r3.Simulations())
	}
	if s := st3.Stats(); s.Corrupt != 1 || s.Writes != 1 {
		t.Errorf("corrupt-entry store stats = %+v, want corrupt=1 writes=1 (repaired)", s)
	}

	// And the repair took: a fourth Runner warm-starts again.
	st4, err := store.Open(dir, sim.TimingModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	r4 := NewRunner(cpScale)
	r4.Store = st4
	if got4, err := r4.Run(sp); err != nil || got4 != want {
		t.Errorf("after repair: result %+v (err %v), want %+v", got4, err, want)
	}
	if r4.Simulations() != 0 {
		t.Errorf("post-repair Runner ran %d simulations, want 0", r4.Simulations())
	}
}

// TestCheckpointCacheLRU pins the checkpoint cache's bookkeeping on a
// private instance: the capacity bound holds, a get refreshes recency so
// the least recently *used* entry (not the oldest insert) is evicted, a
// re-put replaces in place without evicting, and every counter matches.
func TestCheckpointCacheLRU(t *testing.T) {
	c := newCheckpointCache(2)
	key := func(b string) runKey { return runKey{bench: b} }
	cps := map[string]*sim.Checkpoint{"a": {}, "b": {}, "c": {}, "d": {}}

	c.put(key("a"), cps["a"])
	c.put(key("b"), cps["b"])
	if got, ok := c.get(key("a")); !ok || got != cps["a"] {
		t.Fatalf("get(a) = (%p, %v), want the stored checkpoint", got, ok)
	}
	// a was just used, so inserting c must evict b.
	c.put(key("c"), cps["c"])
	if _, ok := c.get(key("b")); ok {
		t.Error("b survived although it was the least recently used entry")
	}
	for _, k := range []string{"a", "c"} {
		if got, ok := c.get(key(k)); !ok || got != cps[k] {
			t.Errorf("get(%s) = (%p, %v), want the stored checkpoint", k, got, ok)
		}
	}
	// Replacing a cached key refreshes it and evicts nothing.
	repl := &sim.Checkpoint{}
	c.put(key("a"), repl)
	if got, _ := c.get(key("a")); got != repl {
		t.Error("re-put did not replace the cached checkpoint")
	}
	// c is now the least recently used; d evicts it.
	c.put(key("d"), cps["d"])
	if _, ok := c.get(key("c")); ok {
		t.Error("c survived although it was the least recently used entry")
	}

	want := CheckpointStats{Size: 2, Capacity: 2, Hits: 4, Misses: 2, Evictions: 2}
	if st := c.stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

// figC1Runs is how many scheduler runs Figure C1 makes: one per (pair,
// quantum, policy) cell plus one solo baseline per (benchmark, policy).
const figC1Runs = len(figC1Pairs)*len(figC1Quanta)*len(figC1Policies) +
	2*len(figC1Pairs)*len(figC1Policies)

// TestFigureC1ForksFromPrefixes: once any Runner has built Figure C1, a
// fresh Runner — at another scale — restores every one of its scheduler
// runs from the cached prefixes (no warmup re-simulated), takes its traces
// from its own trace memo (one materialization per benchmark, not per
// run), and still renders the golden table byte for byte.
func TestFigureC1ForksFromPrefixes(t *testing.T) {
	if _, err := NewRunner(cpScale).FigureC1(); err != nil {
		t.Fatal(err)
	}
	before := CheckpointCacheStats()
	r := NewRunner(goldenScale)
	fr, err := r.FigureC1()
	if err != nil {
		t.Fatal(err)
	}
	after := CheckpointCacheStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != int64(figC1Runs) || misses != 0 {
		t.Errorf("fresh Runner's figC1: %d prefix hits, %d misses; want %d and 0", hits, misses, figC1Runs)
	}
	if m := r.TraceStats().Misses; m != 4 {
		t.Errorf("figC1 materialized %d traces, want 4 (one per benchmark)", m)
	}
	if used := r.DispatchStats().BudgetUsed; used != 0 {
		t.Errorf("figC1 left %d budget slots held", used)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "figC1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fr.Render(); got != string(want) {
		t.Errorf("forked figC1 differs from the golden:\n%s", got)
	}
}

// TestPrefixKeysNeverCrossDrained: a solo prefix has the same runKey as
// the drained post-warmup checkpoint of its configuration, so only the
// key's prefix discriminator keeps a drained lookup from being answered
// with a scheduler prefix, or the reverse. Checked on a private cache and
// on the process-wide one after Figure C1 has filled it.
func TestPrefixKeysNeverCrossDrained(t *testing.T) {
	const scheme = "snc-lru:switch=flush"
	pk := prefixKey([]string{"mcf"}, scheme, sched.DefaultQuantum)
	if pk.runKey != defaultKey("mcf", scheme) {
		t.Fatalf("solo prefix runKey %+v, want the drained key", pk.runKey)
	}
	c := newCheckpointCache(4)
	p, cp := &sched.Prefix{}, &sim.Checkpoint{}
	c.putPrefix(pk, p)
	if got, ok := c.get(defaultKey("mcf", scheme)); ok {
		t.Fatalf("drained lookup returned %p from a cache holding only a prefix", got)
	}
	c.put(defaultKey("mcf", scheme), cp)
	if got, ok := c.getPrefix(pk); !ok || got != p {
		t.Errorf("prefix lookup = (%p, %v), want the cached prefix", got, ok)
	}
	if got, ok := c.get(defaultKey("mcf", scheme)); !ok || got != cp {
		t.Errorf("drained lookup = (%p, %v), want the cached checkpoint", got, ok)
	}

	if _, err := NewRunner(cpScale).FigureC1(); err != nil {
		t.Fatal(err)
	}
	for _, pair := range figC1Pairs {
		for _, b := range pair {
			for _, policy := range figC1Policies {
				k := defaultKey(b, figC1Scheme(policy))
				if _, ok := checkpoints.get(k); ok {
					t.Errorf("drained lookup for %s/%s hit after figC1 ran no single-program simulation", b, policy)
				}
				if _, ok := checkpoints.getPrefix(cpKey{runKey: k}); ok {
					t.Errorf("prefix lookup without the discriminator hit for %s/%s", b, policy)
				}
				if _, ok := checkpoints.getPrefix(prefixKey([]string{b}, figC1Scheme(policy), sched.DefaultQuantum)); !ok {
					t.Errorf("no solo prefix cached for %s/%s", b, policy)
				}
			}
		}
	}
}
