package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"secureproc/internal/experiments"
)

// figScale is the workload scale the checked-in goldens are rendered at.
const figScale = 0.05

// figWarmPasses is how many warm builds follow each cold one, each on a
// fresh Runner; a warm build is short, so one is too noisy.
const figWarmPasses = 3

type figResult struct {
	coldS, warmS []float64

	// Counters summed over the samples' cold and warm Runners: hits and
	// lookups of the result memo, the trace memo and the checkpoint cache.
	memoHits, memoLookups   int64
	traceHits, traceLookups int64
	cpHits, cpLookups       int64

	// Traced runs only: a cold pass built figure by figure, split into the
	// single-program sweep and the multiprogrammed figC1.
	sweepS, figC1S float64
	layers         []LayerStat
}

// figChildResult is a figures child's result line.
type figChildResult struct {
	ColdS       float64                     `json:"cold_s"`
	WarmS       []float64                   `json:"warm_s"`
	SweepS      float64                     `json:"sweep_s"`
	FigC1S      float64                     `json:"figc1_s"`
	Checked     int                         `json:"checked"`
	Mismatches  []string                    `json:"mismatches"`
	Memo        []experiments.CacheStats    `json:"memo"`
	Trace       []experiments.CacheStats    `json:"trace"`
	Checkpoints experiments.CheckpointStats `json:"checkpoints"`
	Layers      []LayerStat                 `json:"layers"`
}

// figRun measures cold and warm figure builds, each sample in a fresh
// process.
type figRun struct {
	tr   *Tracer
	t    *tally
	root int32
	args []string
	n    int
	res  figResult
}

// startFigures prepares the figure samples; each runs in its own child.
func startFigures(o *options, tr *Tracer, t *tally) *figRun {
	f := &figRun{tr: tr, t: t, root: tr.Begin("figures", noSpan, 0), args: []string{
		"-jobs", strconv.Itoa(o.jobs),
		"-goldens", filepath.Join(o.root, "internal", "experiments", "testdata"),
	}}
	if tr != nil {
		f.args = append(f.args, "-spans", traceFile(o, "figures"))
	}
	return f
}

// sample runs one figures child and returns how long it took.
func (f *figRun) sample(ctx context.Context, _ time.Duration) (time.Duration, error) {
	sp := f.tr.Begin("figures.sample", f.root, uint32(f.n))
	t0 := time.Now()
	var res figChildResult
	_, err := runChild(ctx, "figures", append(f.args, "-mode", "sample", "-req", strconv.Itoa(f.n)), &res)
	f.tr.End(sp)
	f.n++
	if err != nil {
		return 0, err
	}
	f.res.coldS = append(f.res.coldS, res.ColdS)
	f.res.warmS = append(f.res.warmS, res.WarmS...)
	f.add(res)
	return time.Since(t0), nil
}

// finish runs the traced split build, if tracing, and returns the results.
func (f *figRun) finish(ctx context.Context) (figResult, error) {
	defer f.tr.End(f.root)
	if f.tr != nil {
		sp := f.tr.Begin("figures.split", f.root, 0)
		var res figChildResult
		_, err := runChild(ctx, "figures", append(f.args, "-mode", "split"), &res)
		f.tr.End(sp)
		if err != nil {
			return f.res, err
		}
		f.res.sweepS, f.res.figC1S = res.SweepS, res.FigC1S
		f.add(res)
	}
	return f.res, nil
}

// add folds a child's checks, counters and spans into the run.
func (f *figRun) add(res figChildResult) {
	notes := make([]string, len(res.Mismatches))
	for i, m := range res.Mismatches {
		notes[i] = "figure " + m + " differs from its golden"
	}
	f.t.add(res.Checked, len(res.Mismatches), notes)
	for _, s := range res.Memo {
		f.res.memoHits += s.Hits
		f.res.memoLookups += s.Hits + s.Misses + s.Coalesced
	}
	for _, s := range res.Trace {
		f.res.traceHits += s.Hits
		f.res.traceLookups += s.Hits + s.Misses + s.Coalesced
	}
	f.res.cpHits += res.Checkpoints.Hits
	f.res.cpLookups += res.Checkpoints.Hits + res.Checkpoints.Misses
	f.res.layers = append(f.res.layers, res.Layers...)
}

// traceFile names the span file a traced child writes.
func traceFile(o *options, role string) string {
	return filepath.Join(o.root, ".bench_build", "traces",
		fmt.Sprintf("%s-seed%d-%d-%s", o.workload, o.seed, os.Getpid(), role))
}

// figuresChild is one figures process. Modes: "sample" builds every figure
// cold through Runner.All, then figWarmPasses more times, each on a fresh
// Runner (warm: the process-wide checkpoint cache is full); "split" builds
// cold figure by figure so spans separate the single-program sweep from the
// multiprogrammed figC1.
func figuresChild(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	jobs := fs.Int("jobs", 1, "Runner.Jobs")
	goldenDir := fs.String("goldens", "", "directory of the checked-in golden figures")
	mode := fs.String("mode", "sample", "sample or split")
	spans := fs.String("spans", "", "write spans to this file prefix (traced runs)")
	req := fs.Int("req", 0, "request ID for spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := experiments.Names()
	goldens := make(map[string]string, len(names))
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(*goldenDir, n+".golden"))
		if err != nil {
			return err
		}
		goldens[n] = string(data)
	}
	fmt.Println(readyLine)

	var tr *Tracer
	if *spans != "" {
		tr = newTracer()
	}
	var res figChildResult
	check := func(rendered map[string]string) {
		for _, n := range names {
			res.Checked++
			if rendered[n] != goldens[n] {
				res.Mismatches = append(res.Mismatches, n)
			}
		}
	}
	newRunner := func() *experiments.Runner {
		r := experiments.NewRunner(figScale)
		r.Jobs = *jobs
		return r
	}
	stats := func(r *experiments.Runner) {
		res.Memo = append(res.Memo, r.MemoStats())
		res.Trace = append(res.Trace, r.TraceStats())
	}

	switch *mode {
	case "sample":
		for pass := 0; pass <= figWarmPasses; pass++ {
			name := "figures.warm"
			if pass == 0 {
				name = "figures.cold"
			}
			r := newRunner()
			sp := tr.Begin(name, noSpan, uint32(*req))
			t0 := time.Now()
			frs := r.All()
			rendered := make(map[string]string, len(frs))
			for i, fr := range frs {
				rendered[names[i]] = fr.Render()
			}
			d := time.Since(t0).Seconds()
			tr.End(sp)
			if pass == 0 {
				res.ColdS = d
			} else {
				res.WarmS = append(res.WarmS, d)
			}
			check(rendered)
			stats(r)
		}
	case "split":
		r := newRunner()
		sp := tr.Begin("figures.cold_split", noSpan, uint32(*req))
		rendered := make(map[string]string, len(names))
		for _, n := range names {
			layer := "experiments.figure"
			if n == "figC1" {
				layer = "sched.figC1"
			}
			fsp := tr.Begin(layer, sp, uint32(*req))
			t0 := time.Now()
			fr, err := r.ByName(n)
			if err != nil {
				return err
			}
			rendered[n] = fr.Render()
			if n == "figC1" {
				res.FigC1S = time.Since(t0).Seconds()
			} else {
				res.SweepS += time.Since(t0).Seconds()
			}
			tr.End(fsp)
		}
		tr.End(sp)
		check(rendered)
		stats(r)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	res.Checkpoints = experiments.CheckpointCacheStats()
	if tr != nil {
		for _, l := range tr.Layers() {
			res.Layers = append(res.Layers, l)
		}
		if err := tr.WriteFile(fmt.Sprintf("%s-%s-%d.json", *spans, *mode, os.Getpid())); err != nil {
			return err
		}
	}
	return childReport(res)
}
