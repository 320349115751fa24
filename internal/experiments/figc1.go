package experiments

// Figure C1: the multiprogramming experiment the paper argues in Section
// 4.3 but never measures. Benchmark pairs are time-sliced through one
// machine at two quantum lengths under both context-switch policies; the
// table reports each pair's average slowdown over solo runs and the
// switch-induced SNC spill traffic. The flush policy (option 1) pays a
// spill burst at every switch; the PID-tag policy (option 2) pays zero
// switch traffic but runs a smaller effective SNC — exactly the trade the
// paper describes.

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"secureproc/internal/sched"
	"secureproc/internal/stats"
	"secureproc/internal/workload"
)

// figC1Pairs co-schedules a cache-friendly benchmark with a miss-heavy one
// (where switch costs show) and two mid-pressure benchmarks.
var figC1Pairs = [2][2]string{{"mcf", "gzip"}, {"art", "vpr"}}

// figC1Quanta are the slice lengths in instructions.
var figC1Quanta = [2]uint64{10_000, 50_000}

// figC1Policies are the Section 4.3 options as registry parameters.
var figC1Policies = [2]string{"flush", "pid"}

// figC1Scheme is the canonical registry reference for one policy.
func figC1Scheme(policy string) string { return "snc-lru:switch=" + policy }

// prefixKey is the checkpoint-cache key of the scheduler prefix for benches
// co-scheduled at quantum under scheme on the paper's default machine. The
// scale is deliberately absent: see sched.Prefix.
func prefixKey(benches []string, scheme string, quantum uint64) cpKey {
	return cpKey{runKey: defaultKey(strings.Join(benches, "+"), scheme), prefix: true, quantum: quantum}
}

// schedRun runs benches time-sliced at quantum under scheme, holding one
// slot of the shared worker budget. It forks from the cached prefix when
// there is one and leaves the prefix it captured behind when there is not;
// a scheme that is not Snapshottable runs straight through every time.
func (r *Runner) schedRun(traces []sched.Trace, scheme string, quantum uint64) (sched.Result, error) {
	benches := make([]string, len(traces))
	for i, tr := range traces {
		benches[i] = tr.Bench
	}
	k := prefixKey(benches, scheme, quantum)
	cfg, err := r.config(k.runKey)
	if err != nil {
		return sched.Result{}, err
	}
	b := r.bud()
	b.Hold()
	defer b.Release(1)
	from, _ := checkpoints.getPrefix(k)
	res, p, err := sched.RunTraces(sched.Config{Sim: cfg, Quantum: quantum, SkipSolo: true}, traces, from)
	if p != nil {
		checkpoints.putPrefix(k, p)
	}
	return res, err
}

// FigureC1 generates the multiprogrammed context-switch figure (measured
// only — the paper states the design, Section 4.3, but reports no
// numbers). Every run replays the Runner's memoized traces and forks from
// its scale-independent prefix in the process-wide checkpoint cache. The
// scheduler runs and their solo baselines are all independent, so they fan
// out over up to Runner.Jobs goroutines, each holding one slot of the
// shared worker budget; assembly order is fixed, so the output is
// deterministic.
func (r *Runner) FigureC1() (FigureResult, error) {
	ctx := context.Background() //secsim:detach process-lifetime figure build, like the other figures' sweeps
	traces := make(map[string]sched.Trace)
	for _, pair := range figC1Pairs {
		for _, bench := range pair {
			if _, ok := traces[bench]; ok {
				continue
			}
			prof, ok := workload.ByName(bench)
			if !ok {
				return FigureResult{}, fmt.Errorf("experiments: unknown benchmark %q", bench)
			}
			recs, err := r.trace(ctx, prof)
			if err != nil {
				return FigureResult{}, fmt.Errorf("experiments: figC1: %w", err)
			}
			traces[bench] = sched.NewTrace(prof, recs)
		}
	}

	// One run per solo baseline and per (pair, quantum, policy) cell. Solo
	// baselines are policy-dependent (PID tags shrink the SNC) but quantum-
	// and pair-independent: one run per (bench, policy). Workers write
	// disjoint slots.
	type c1run struct {
		benches []string
		policy  string
		quantum uint64
		res     sched.Result
	}
	var runs []*c1run
	solos := make(map[[2]string]*c1run)
	for _, pair := range figC1Pairs {
		for _, bench := range pair {
			for _, policy := range figC1Policies {
				if k := [2]string{bench, policy}; solos[k] == nil {
					solos[k] = &c1run{benches: []string{bench}, policy: policy, quantum: sched.DefaultQuantum}
					runs = append(runs, solos[k])
				}
			}
		}
	}
	var rows []string
	var multis []*c1run // row-major: pair, quantum, then policy
	for _, pair := range figC1Pairs {
		for _, quantum := range figC1Quanta {
			rows = append(rows, fmt.Sprintf("%s+%s q=%d", pair[0], pair[1], quantum))
			for _, policy := range figC1Policies {
				run := &c1run{benches: pair[:], policy: policy, quantum: quantum}
				multis = append(multis, run)
				runs = append(runs, run)
			}
		}
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	sem := make(chan struct{}, r.jobs())
	for _, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tasks := make([]sched.Trace, len(run.benches))
			for i, b := range run.benches {
				tasks[i] = traces[b]
			}
			res, err := r.schedRun(tasks, figC1Scheme(run.policy), run.quantum)
			if err != nil {
				errOnce.Do(func() {
					firstErr = fmt.Errorf("experiments: figC1 %s: %w", strings.Join(run.benches, "+"), err)
				})
				return
			}
			run.res = res
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return FigureResult{}, firstErr
	}

	type cell struct{ slowdown, trafficPct float64 }
	var results [len(figC1Policies)][]cell
	for i, run := range multis {
		pi := i % len(figC1Policies)
		avg := 0.0
		for _, task := range run.res.Tasks {
			s := solos[[2]string{task.Bench, run.policy}].res.TotalCycles
			avg += 100 * (float64(task.Cycles)/float64(s) - 1)
		}
		avg /= float64(len(run.res.Tasks))
		results[pi] = append(results[pi], cell{
			slowdown:   avg,
			trafficPct: stats.Pct(run.res.SwitchSeqSpills, run.res.DemandTraffic),
		})
	}

	mk := func(name string, pi int, f func(cell) float64) stats.Series {
		vals := make([]float64, len(rows))
		for i, c := range results[pi] {
			vals[i] = f(c)
		}
		return stats.NewSeries(name, rows, vals)
	}
	return FigureResult{
		ID:    "Figure C1",
		Title: "multiprogrammed context switches (§4.3): flush-encrypt vs PID-tagged SNC, per-pair average slowdown over solo runs",
		Rows:  rows,
		Measured: []stats.Series{
			mk("flush slowdown% (measured)", 0, func(c cell) float64 { return c.slowdown }),
			mk("pid slowdown% (measured)", 1, func(c cell) float64 { return c.slowdown }),
			mk("flush switch-traffic%", 0, func(c cell) float64 { return c.trafficPct }),
			mk("pid switch-traffic%", 1, func(c cell) float64 { return c.trafficPct }),
		},
		Notes: "every switch invalidates L1/L2 (dirty lines drain through the scheme) under both policies; " +
			"flush additionally spills live SNC entries (switch-traffic% of demand traffic), " +
			"pid keeps entries resident at the cost of 8 tag bits per entry (21.8K vs 32K sequence numbers)",
	}, nil
}
