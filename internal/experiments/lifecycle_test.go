package experiments

// Regression tests for the memo-lifecycle bugs the secsimd service exposed:
// a panicking workload.Materialize stranding trace waiters with an empty
// trace and nil error, result waiters ignoring context cancellation, and
// cancelled sweeps reporting nil.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// panickingProfile passes workload validation but panics during trace
// generation: int64(Size) is negative, so the generator's Int63n call
// panics on the first reference.
func panickingProfile() workload.Profile {
	return workload.Profile{
		Name: "panicker",
		Seed: 1,
		Phases: []workload.Phase{{
			Refs:    16,
			Regions: []workload.Region{{Base: 0, Size: 1 << 63, Pattern: workload.RandomPattern, Weight: 1}},
		}},
	}
}

// TestTracePanicRecorded pins the stranded-waiter bugfix in Runner.trace: a
// panic inside workload.Materialize must be recorded as the memo entry's
// error (and re-raised in the owner) so waiters see a failure, and the
// failed entry must then be dropped — a later request becomes a fresh
// attempt (here it deterministically panics again) rather than a hit on an
// empty trace with a nil error or on a permanent negative cache.
func TestTracePanicRecorded(t *testing.T) {
	r := NewRunner(1)
	prof := panickingProfile()
	attempt := func() (p any) {
		defer func() { p = recover() }()
		_, _ = r.trace(context.Background(), prof)
		return nil
	}
	for i := 0; i < 2; i++ {
		p := attempt()
		if p == nil {
			t.Fatalf("attempt %d: Materialize panic did not propagate to the owning caller (errored entry served as a hit?)", i)
		}
	}
	if s := r.TraceStats(); s.Errors != 2 || s.Size != 0 {
		t.Errorf("trace memo stats = %+v, want errors=2 size=0 (failed traces must not stay cached)", s)
	}
}

// TestRunWaiterCancellation pins the context plumbing through Runner.result:
// a waiter whose context is already dead must return ctx.Err() promptly
// instead of blocking on the in-flight owner, and the owner's eventual
// result must still land in the memo. The owner is simulated by a manually
// latched entry so the test is timing-independent.
func TestRunWaiterCancellation(t *testing.T) {
	r := NewRunner(raceScale)
	spec := DefaultSpec("gzip", sim.SchemeBaseline)
	k := spec.key()
	m := r.results()
	e := &memoEntry[runKey, sim.Result]{key: k, done: make(chan struct{})}
	m.mu.Lock()
	m.entries[k] = e
	m.inflight++
	m.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}

	// The slow owner completes; waiters and future calls read its result.
	want := sim.Result{Scheme: "baseline", Cycles: 123, Instructions: 45}
	m.mu.Lock()
	e.val = want
	m.inflight--
	m.lru.pushFront(e)
	m.mu.Unlock()
	close(e.done)
	got, err := r.RunCtx(context.Background(), spec)
	if err != nil || got != want {
		t.Errorf("after owner completion RunCtx = (%+v, %v), want the owner's result", got, err)
	}
}

// TestSweepContainsSimulationPanic pins the service-survival contract: a
// simulation that panics inside a sweep-pool worker must surface as the
// sweep's error, not as an unrecovered panic in a goroutine no caller can
// reach (which would kill a long-lived secsimd process outright). The
// absurd scale makes workload.Materialize's record-count arithmetic
// overflow, so the trace allocation panics for every benchmark.
func TestSweepContainsSimulationPanic(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		r := NewRunner(1e300)
		r.Jobs = jobs
		specs := []Spec{DefaultSpec("gzip", sim.SchemeBaseline), DefaultSpec("mcf", sim.SchemeBaseline)}
		err := r.Sweep(context.Background(), specs)
		if err == nil {
			t.Fatalf("jobs=%d: sweep over panicking simulations returned nil", jobs)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Errorf("jobs=%d: sweep error %q does not report the panic", jobs, err)
		}
	}
}

// TestOwnerDetachedFromCallerContext pins the memo-poisoning fix: the
// goroutine that owns a result entry must run the simulation on a
// background context, so its own caller's cancellation can never be
// recorded as the entry's permanent error. The trace memo is latched
// manually to hold the owner mid-simulation.
func TestOwnerDetachedFromCallerContext(t *testing.T) {
	r := NewRunner(raceScale)
	prof, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip profile missing")
	}
	tm := r.traceMemo()
	te := &memoEntry[string, []workload.Record]{key: prof.Name, done: make(chan struct{})}
	tm.mu.Lock()
	tm.entries[prof.Name] = te
	tm.inflight++
	tm.mu.Unlock()

	spec := DefaultSpec("gzip", sim.SchemeBaseline)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resCh := make(chan error, 1)
	go func() {
		_, err := r.RunCtx(ctx, spec)
		resCh <- err
	}()
	// The owner must keep waiting on the shared trace despite its dead
	// ctx — an early context.Canceled here would be memoized forever.
	select {
	case err := <-resCh:
		t.Fatalf("result owner returned early with %v; caller cancellation leaked into the shared computation", err)
	case <-time.After(200 * time.Millisecond):
	}
	sentinel := errors.New("trace failed")
	tm.mu.Lock()
	te.err = sentinel
	tm.inflight--
	tm.lru.pushFront(te)
	tm.mu.Unlock()
	close(te.done)
	if err := <-resCh; !errors.Is(err, sentinel) {
		t.Errorf("owner got %v, want the trace's own error", err)
	}
	// The memo must hold the genuine trace error, not a context error.
	if _, err := r.Run(spec); !errors.Is(err, sentinel) {
		t.Errorf("memoized error is %v, want the trace's own error", err)
	}
}

// TestSweepCancelledReportsCanceled pins the spurious-nil fix: a sweep
// whose context is cancelled must report context.Canceled even when there
// is no key left to trip over — an empty key list, or a cancellation that
// lands after the last simulation completes.
func TestSweepCancelledReportsCanceled(t *testing.T) {
	r := NewRunner(raceScale)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if err := r.Sweep(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled empty sweep returned %v, want context.Canceled", err)
	}

	// All specs already memoized: the feed drains instantly and every
	// worker exits cleanly, yet the cancellation must still be reported
	// (both the sequential and the pooled path).
	specs := []Spec{DefaultSpec("gzip", sim.SchemeBaseline), DefaultSpec("mesa", sim.SchemeBaseline)}
	if err := r.Sweep(context.Background(), specs); err != nil {
		t.Fatalf("warmup sweep: %v", err)
	}
	for _, jobs := range []int{1, 4} {
		r.Jobs = jobs
		if err := r.Sweep(ctx, specs); !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: cancelled sweep over memoized specs returned %v, want context.Canceled", jobs, err)
		}
	}
}

// TestSpecValidate covers the shared spec validation the service request
// path relies on.
func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec("gzip", sim.SchemeOTPLRU).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := DefaultSpec("nosuch", sim.SchemeOTPLRU).Validate(); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown benchmark accepted: %v", err)
	}
	if err := DefaultSpec("gzip", sim.SchemeRef{Name: "nosuch"}).Validate(); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestExpandBenches covers the parser shared by secsim -bench and the
// secsimd request path.
func TestExpandBenches(t *testing.T) {
	if got, err := ExpandBenches("all"); err != nil || len(got) != len(workload.BenchmarkNames) {
		t.Errorf(`ExpandBenches("all") = (%v, %v)`, got, err)
	}
	got, err := ExpandBenches(" gzip , mcf ")
	if err != nil || len(got) != 2 || got[0] != "gzip" || got[1] != "mcf" {
		t.Errorf("comma list = (%v, %v)", got, err)
	}
	if _, err := ExpandBenches("gzip,nosuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := ExpandBenches(" , "); err == nil {
		t.Error("empty list accepted")
	}
}
