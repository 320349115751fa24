package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"secureproc/internal/sim"
	"secureproc/internal/workload"
)

// TestExpandBenchesDedupe is the regression test for the duplicate-benchmark
// bug: "gzip,mcf,gzip" used to produce three specs, so the same simulation
// ran (or was memo-answered) twice and sweeps reported inflated counts. The
// parser must keep the first occurrence of each name and drop the rest.
func TestExpandBenchesDedupe(t *testing.T) {
	got, err := ExpandBenches("gzip,mcf,gzip")
	if err != nil || len(got) != 2 || got[0] != "gzip" || got[1] != "mcf" {
		t.Errorf(`ExpandBenches("gzip,mcf,gzip") = (%v, %v), want [gzip mcf]`, got, err)
	}
	got, err = ExpandBenches(" mcf , gzip ,mcf,  mcf ")
	if err != nil || len(got) != 2 || got[0] != "mcf" || got[1] != "gzip" {
		t.Errorf("repeated-name list = (%v, %v), want [mcf gzip]", got, err)
	}
	// "all" must hand back a copy: callers sort and slice the result, and
	// that must never reorder the canonical workload.BenchmarkNames.
	all, err := ExpandBenches("all")
	if err != nil {
		t.Fatalf(`ExpandBenches("all"): %v`, err)
	}
	if len(all) == 0 {
		t.Fatal(`ExpandBenches("all") returned no benchmarks`)
	}
	first := workload.BenchmarkNames[0]
	all[0] = "clobbered"
	if workload.BenchmarkNames[0] != first {
		t.Fatal(`ExpandBenches("all") aliases workload.BenchmarkNames`)
	}
}

// defaultSpec builds a spec for the scheme under the paper's default
// configuration.
func defaultSpec(t *testing.T, bench, scheme string) Spec {
	t.Helper()
	ref, err := sim.SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return DefaultSpec(bench, ref)
}

// TestSweepEachStreaming: SweepEach must invoke the callback exactly once
// per spec, serialized, with results identical to Run's, and must not wait
// for the whole sweep before the first callback (that property is pinned
// end-to-end by the server streaming tests; here we pin per-spec delivery
// and completeness).
func TestSweepEachStreaming(t *testing.T) {
	const scale = 0.025
	specs := []Spec{
		defaultSpec(t, "mcf", schemeLRU),
		defaultSpec(t, "gzip", schemeLRU),
		defaultSpec(t, "parser", schemeLRU),
	}
	r := NewRunner(scale)
	r.Jobs = 2

	var mu sync.Mutex
	results := make(map[int]sim.Result)
	err := r.SweepEach(context.Background(), specs, func(i int, res sim.Result, err error) {
		if err != nil {
			t.Errorf("spec %d: %v", i, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if _, dup := results[i]; dup {
			t.Errorf("spec %d delivered twice", i)
		}
		results[i] = res
	})
	if err != nil {
		t.Fatalf("SweepEach: %v", err)
	}
	if len(results) != len(specs) {
		t.Fatalf("delivered %d results, want %d", len(results), len(specs))
	}
	for i, s := range specs {
		want, err := r.Run(s) // memo hit: must match what the sweep delivered
		if err != nil {
			t.Fatalf("Run(%d): %v", i, err)
		}
		if results[i] != want {
			t.Errorf("spec %d: streamed result diverged from Run", i)
		}
	}
}

// TestRunDispatchedSheds: a request whose context is already dead must not
// burn a worker slot on a simulation nobody is waiting for.
func TestRunDispatchedSheds(t *testing.T) {
	r := NewRunner(0.025)
	r.Jobs = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunDispatched(ctx, defaultSpec(t, "vpr", schemeLRU)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunDispatched on dead context = %v, want context.Canceled", err)
	}
	if n := r.Simulations(); n != 0 {
		t.Errorf("shed request still ran %d simulations", n)
	}
	if st := r.MemoStats(); st.Size != 0 {
		t.Errorf("shed request left %d memoized results, want 0", st.Size)
	}
}
