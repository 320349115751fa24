package experiments

// This file is the concurrent sweep engine behind the figures and the
// secsimd service: a singleflight-style memo (per-key latches, so
// concurrent requests for the same configuration block on one simulation
// instead of racing or double-computing) fed by the dispatch layer's
// weighted-fair scheduler, which fans runKeys out over the shared worker
// budget (Runner.Jobs slots). Every simulation builds its own sim.System,
// workload stream and RNG, so concurrent jobs share nothing but the memo.
// The memo mechanics (coalescing, cancellation, LRU eviction, panic
// recording) live in memo.go; the scheduling mechanics (budget, fairness,
// admission) live in internal/dispatch.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"secureproc/internal/core"
	"secureproc/internal/dispatch"
	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// results returns the result memo, initializing it on first use so
// Capacity can be set after NewRunner but before the first request.
func (r *Runner) results() *memo[runKey, sim.Result] {
	return r.cache.init(r.Capacity, func(k runKey) string {
		return fmt.Sprintf("simulation %s/%s", k.bench, k.scheme)
	})
}

// result executes (or recalls) the simulation for k, deduplicating
// concurrent requests for the same key. A caller whose ctx expires while
// another goroutine owns the in-flight simulation returns ctx.Err()
// promptly; the simulation itself always runs to completion so the result
// is memoized for everyone else. With a persistent store attached, a memo
// miss consults the store before simulating and a fresh simulation is
// spilled back to it — errored computations are dropped by the memo and
// never reach the store.
//
// held reports whether the caller already holds one slot of the shared
// worker budget (a dispatcher job does; a direct library call does not),
// so the simulation charges the budget exactly once either way.
func (r *Runner) result(ctx context.Context, k runKey, held bool) (sim.Result, error) {
	return r.results().do(ctx, k, func() (sim.Result, error) {
		if r.Store != nil {
			var res sim.Result
			if r.Store.Load(r.storeKey(k), &res) {
				return res, nil
			}
		}
		// The owner's simulation is deliberately detached from ctx:
		// cancellation governs waiting, never the shared computation. If
		// the caller's ctx flowed in here, an owner coalescing onto an
		// in-flight trace could record its own timeout as the entry's
		// permanent error, poisoning the spec for every future request.
		res, err := r.simulate(context.Background(), k, held) //secsim:detach memo owner: a caller timeout must not poison the shared entry
		if err == nil && r.Store != nil {
			r.Store.Save(r.storeKey(k), res)
		}
		return res, err
	})
}

// resultSafe is result with the long-lived service's panic containment: a
// re-raised simulation panic is converted into an error (the memo has
// already recorded it as the entry's error) so one poisoned key fails its
// own job instead of killing the process — essential for secsimd, where
// dispatched jobs run in goroutines no HTTP-layer recover can reach.
func (r *Runner) resultSafe(ctx context.Context, k runKey, held bool) (res sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: simulation %s/%s panicked: %v", k.bench, k.scheme, p)
		}
	}()
	return r.result(ctx, k, held)
}

// resultErr is resultSafe for callers that run on their own goroutine
// (the sequential sweep loop) and only need the outcome.
func (r *Runner) resultErr(ctx context.Context, k runKey) error {
	_, err := r.resultSafe(ctx, k, false)
	return err
}

// simulate runs one simulation: fresh system, shared materialized trace.
// Every configuration of one benchmark replays the same record sequence
// (identical to what a fresh generator would emit), so trace generation
// costs once per benchmark instead of once per simulation. The warmup
// prefix additionally forks from the process-wide checkpoint cache (see
// checkpoint.go): the first simulation of a configuration warms up and
// checkpoints the boundary state, later ones restore it and run only the
// measured phase — event-for-event identical to the straight-through run.
func (r *Runner) simulate(ctx context.Context, k runKey, held bool) (sim.Result, error) {
	prof, ok := workload.ByName(k.bench)
	if !ok {
		return sim.Result{}, fmt.Errorf("experiments: unknown benchmark %q", k.bench)
	}
	cfg, err := r.config(k)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %w", err)
	}
	recs, err := r.trace(ctx, prof)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %w", err)
	}
	if !held {
		// Direct callers charge the budget themselves; Hold never blocks
		// (overcommit just leaves no idle slot for dispatched jobs),
		// matching a dispatched job's one-slot footprint.
		b := r.bud()
		b.Hold()
		defer b.Release(1)
	}
	warm := prof.WarmupRefs()
	if warm > len(recs) {
		warm = len(recs)
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	r.sims.Add(1)
	if cp, ok := checkpoints.get(k); ok {
		if sys.Restore(cp) == nil {
			return sys.RunMeasured(workload.Replay(recs[warm:])), nil
		}
	}
	sys.RunWarmup(workload.Replay(recs[:warm]))
	if cp, ok := sys.Checkpoint(); ok {
		checkpoints.put(k, cp)
	}
	return sys.RunMeasured(workload.Replay(recs[warm:])), nil
}

// traceMemo returns the trace memo, initializing it on first use (see
// results).
func (r *Runner) traceMemo() *memo[string, []workload.Record] {
	return r.traces.init(r.TraceCapacity, func(name string) string {
		return fmt.Sprintf("trace %s", name)
	})
}

// trace returns the materialized record sequence for prof at the Runner's
// scale, generating it on first use. Concurrent workers materialize each
// trace exactly once; a panicking Materialize is recorded as the entry's
// error (waiters see the failure, never an empty trace with a nil error)
// and re-raised in the owning goroutine.
func (r *Runner) trace(ctx context.Context, prof workload.Profile) ([]workload.Record, error) {
	return r.traceMemo().do(ctx, prof.Name, func() ([]workload.Record, error) {
		return workload.Materialize(prof, r.Scale)
	})
}

// jobs resolves the effective worker count.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// bud returns the shared worker budget, refreshing its cap from the
// current Jobs setting (Jobs is set before the first request; re-storing
// the same cap is free).
func (r *Runner) bud() *dispatch.Budget {
	r.budget.SetCap(r.jobs())
	return &r.budget
}

// dispatcher returns the weighted-fair dispatcher over the shared budget,
// building it on first use so batch Runners never pay for it.
func (r *Runner) dispatcher() *dispatch.Dispatcher {
	d := r.disp.Load()
	if d == nil {
		r.dispMu.Lock()
		if d = r.disp.Load(); d == nil {
			d = dispatch.NewDispatcher(&r.budget)
			r.disp.Store(d)
		}
		r.dispMu.Unlock()
	}
	r.budget.SetCap(r.jobs())
	return d
}

// DispatchStats snapshots the dispatcher's queue, fairness and budget
// counters — the payload behind secsimd's /metrics "dispatch" section and
// secsim's batch-mode stderr line. A Runner that never dispatched (the
// sequential batch path) reports budget gauges only, without constructing
// a dispatcher.
func (r *Runner) DispatchStats() dispatch.QueueStats {
	if d := r.disp.Load(); d != nil {
		return d.Stats()
	}
	return dispatch.QueueStats{BudgetCap: r.budget.Cap(), BudgetUsed: r.budget.Used()}
}

// OwnerQueued reports how many dispatched jobs the named fairness owner
// has waiting for a worker slot (0 when nothing was ever dispatched) —
// the per-owner depth behind the admission layer's Retry-After estimate.
func (r *Runner) OwnerQueued(owner string) int {
	if d := r.disp.Load(); d != nil {
		return d.OwnerQueued(owner)
	}
	return 0
}

// dispatchKeys memoizes every key through the weighted-fair dispatcher:
// one job per key, tagged with the owner/weight carried by ctx
// (dispatch.WithOwner), each holding one budget slot while it runs. each
// — when non-nil — is invoked once per key that actually resolved, in
// completion order (calls are serialized), with the key's index and
// outcome; keys shed by cancellation before simulating are not reported.
// The first simulation error cancels the remaining queued jobs, and a
// cancelled dispatch always reports the cancellation, even when every job
// drained cleanly first. Jobs must never dispatch recursively: a job that
// waited on a nested dispatch would hold its slot while the nested jobs
// starve for one.
func (r *Runner) dispatchKeys(ctx context.Context, keys []runKey, each func(i int, res sim.Result, err error)) error {
	d := r.dispatcher()
	owner, weight := dispatch.OwnerFromContext(ctx)
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		cbMu     sync.Mutex
	)
	wg.Add(len(keys))
	for i, k := range keys {
		d.Submit(ctx, owner, weight, func(jctx context.Context) {
			defer wg.Done()
			if jctx.Err() != nil {
				return
			}
			res, err := r.resultSafe(jctx, k, true)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				cancel()
			}
			if each != nil {
				cbMu.Lock()
				each(i, res, err)
				cbMu.Unlock()
			}
		})
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Report cancellation off the parent, not the derived context: the
	// derived one is about to be cancelled by the deferred cancel
	// regardless, while parent.Err() is non-nil exactly when the caller's
	// context was cancelled.
	return parent.Err()
}

// sweep memoizes every key. With one worker (or one key) it is a plain
// sequential loop — the batch path the perf harness gates allocation-for-
// allocation; otherwise the keys fan out through the weighted-fair
// dispatcher over the shared budget. It returns when all simulations are
// done, the context is cancelled, or a simulation fails (first error
// wins; queued work is shed). A cancelled sweep always reports the
// cancellation, even when it raced the last completion or the key list
// was empty, and a panicking simulation surfaces as the sweep's error
// rather than propagating out of a job goroutine.
func (r *Runner) sweep(ctx context.Context, keys []runKey) error {
	n := r.jobs()
	if n > len(keys) {
		n = len(keys)
	}
	if n <= 1 {
		for _, k := range keys {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := r.resultErr(ctx, k); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	return r.dispatchKeys(ctx, keys, nil)
}

// Spec is the exported face of a runKey: one simulation in the sweep
// engine's memo space. The zero value is not useful — start from
// DefaultSpec and tweak.
type Spec struct {
	// Bench is the benchmark name (workload.BenchmarkNames).
	Bench string
	// Scheme is the protection scheme to simulate: any registered scheme
	// reference (sim.SchemeBaseline, or one built via sim.SchemeByName).
	Scheme sim.SchemeRef
	// SNCKB and SNCWays configure the sequence number cache (ways 0 =
	// fully associative).
	SNCKB, SNCWays int
	// L2KB and L2Ways configure the unified L2.
	L2KB, L2Ways int
	// CryptoLat is the crypto unit latency in cycles.
	CryptoLat uint64
}

// DefaultSpec is the paper's standard configuration for a benchmark/scheme:
// 64KB fully associative SNC, 256KB 4-way L2, 50-cycle crypto.
func DefaultSpec(bench string, scheme sim.SchemeRef) Spec {
	return Spec{Bench: bench, Scheme: scheme, SNCKB: 64, L2KB: 256, L2Ways: 4, CryptoLat: 50}
}

// Validate checks the spec's names against the workload and scheme
// registries, so callers assembling specs from external input (the secsimd
// request path, the secsim flags) can reject bad ones before simulating.
func (s Spec) Validate() error {
	if _, ok := workload.ByName(s.Bench); !ok {
		return fmt.Errorf("experiments: unknown benchmark %q", s.Bench)
	}
	if _, err := core.LookupRef(s.Scheme); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// ExpandBenches expands a benchmark argument — a single name, a
// comma-separated list, or "all" — into validated benchmark names. Shared
// by the secsim -bench flag and the secsimd request parsers. Duplicate
// names are dropped, keeping the first occurrence's position, so
// "gzip,mcf,gzip" sweeps each benchmark exactly once; "all" returns a
// fresh copy callers may mutate.
func ExpandBenches(arg string) ([]string, error) {
	if strings.EqualFold(arg, "all") {
		return append([]string(nil), workload.BenchmarkNames...), nil
	}
	var out []string
	seen := make(map[string]bool)
	for _, b := range strings.Split(arg, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if _, ok := workload.ByName(b); !ok {
			return nil, fmt.Errorf("unknown benchmark %q (have %s)", b, strings.Join(workload.BenchmarkNames, ", "))
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmarks given")
	}
	return out, nil
}

func (s Spec) key() runKey {
	return runKey{bench: s.Bench, scheme: s.Scheme.Canonical(), sncKB: s.SNCKB, sncWays: s.SNCWays,
		l2KB: s.L2KB, l2Ways: s.L2Ways, cryptoLat: s.CryptoLat}
}

// CanonicalKey renders the spec's memo identity as a string: the same
// canonicalization the singleflight memo deduplicates on (scheme in
// canonical registry form), so two specs share a key exactly when they
// share a memo entry. The cluster fabric consistent-hashes this string to
// pick the one node that owns the spec's simulation and caches.
func (s Spec) CanonicalKey() string {
	k := s.key()
	return fmt.Sprintf("%s/%s/snc%dKB-%dw/l2-%dKB-%dw/c%d",
		k.bench, k.scheme, k.sncKB, k.sncWays, k.l2KB, k.l2Ways, k.cryptoLat)
}

// Run executes (or recalls) the simulation for one spec.
func (r *Runner) Run(s Spec) (sim.Result, error) {
	return r.result(context.Background(), s.key(), false) //secsim:detach warm checkpoint build is shared across requests
}

// RunCtx is Run with cancellation: if the spec's simulation is owned by
// another in-flight request, a cancelled ctx releases this caller with
// ctx.Err() while the shared simulation runs on.
func (r *Runner) RunCtx(ctx context.Context, s Spec) (sim.Result, error) {
	return r.result(ctx, s.key(), false)
}

// RunDispatched executes (or recalls) one spec through the dispatcher's
// fairness queue: instead of simulating immediately on the caller's
// goroutine, the job competes for a worker slot under the owner/weight
// carried by ctx (dispatch.WithOwner), so interactive requests are
// scheduled fairly against bulk sweeps. A cancelled ctx releases the
// caller promptly; a simulation already underway completes detached and
// stays memoized, exactly like RunCtx's waiter semantics.
func (r *Runner) RunDispatched(ctx context.Context, s Spec) (sim.Result, error) {
	type outcome struct {
		res sim.Result
		err error
	}
	k := s.key()
	owner, weight := dispatch.OwnerFromContext(ctx)
	ch := make(chan outcome, 1)
	r.dispatcher().Submit(ctx, owner, weight, func(jctx context.Context) {
		if jctx.Err() != nil {
			ch <- outcome{err: jctx.Err()}
			return
		}
		res, err := r.resultSafe(jctx, k, true)
		ch <- outcome{res, err}
	})
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		return sim.Result{}, ctx.Err()
	}
}

// Sweep memoizes every spec using up to Jobs concurrent workers, so a later
// Run for any of them returns instantly. Specs already memoized cost
// nothing; duplicate specs are deduplicated.
func (r *Runner) Sweep(ctx context.Context, specs []Spec) error {
	keys := make([]runKey, len(specs))
	for i, s := range specs {
		keys[i] = s.key()
	}
	return r.sweep(ctx, keys)
}

// SweepEach memoizes every spec through the weighted-fair dispatcher and
// streams each outcome to fn the moment it lands: fn(i, res, err) receives
// specs[i]'s result in completion order (calls are serialized; err is the
// spec's own failure). Unlike Sweep, SweepEach always dispatches — even a
// one-worker Runner queues through the fair scheduler, so a bulk sweep
// submitted under one owner cannot starve requests submitted under
// another. Specs shed by cancellation before simulating are not reported
// to fn; the returned error is the first failure or the cancellation.
func (r *Runner) SweepEach(ctx context.Context, specs []Spec, fn func(i int, res sim.Result, err error)) error {
	keys := make([]runKey, len(specs))
	for i, s := range specs {
		keys[i] = s.key()
	}
	return r.dispatchKeys(ctx, keys, fn)
}
