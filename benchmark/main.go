// Command bench is the repository's end-to-end benchmark. One run measures
// the three things users of this repository wait on — a cold figure build,
// secsimd answers under mixed interactive and bulk traffic, and the
// functional protected memory — checks every output, and prints one JSON
// line of metrics. See README.md in this directory for the workloads, the
// metrics and which layer should move which metric.
//
// Build and run it through run.sh from the repository root:
//
//	bash benchmark/run.sh --workload serve-mixed --seed 1 --seconds 45 --trace 0
//
// With --trace 1 the run also records spans around calls into each layer
// and prints the per-layer metrics instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Workload names, as passed to --workload.
const (
	wServe = "serve-mixed"
	wPmem  = "pmem"
)

var workloads = []string{wServe, wPmem}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	bin      string // directory holding the built secsimd binary
	root     string // repository checkout the run reads goldens from
	work     string // per-run scratch directory under .bench_build
	jobs     int    // worker count for figure builds and HTTP connections
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2], os.Args[3:]))
	}
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to measure: serve-mixed or pmem")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.IntVar(&secs, "seconds", 45, "seconds a run measures for, shared among the three surfaces")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the secsimd binary")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.jobs = runtime.NumCPU()

	known := false
	for _, w := range workloads {
		known = known || o.workload == w
	}
	if !known || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloads)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, &o, trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, o *options, traced bool) (*output, error) {
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		return nil, err
	}
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		return nil, err
	}
	o.work = filepath.Join(o.root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.work)

	traceDir := filepath.Join(o.root, ".bench_build", "traces")
	if traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
	}

	var t tally
	untraced, err := measure(ctx, o, nil, &t)
	if err != nil {
		return nil, err
	}
	out := &output{Metrics: endToEnd(o.workload, untraced)}
	if traced {
		tr := newTracer()
		tracedPass, err := measure(ctx, o, tr, &t)
		if err != nil {
			return nil, err
		}
		pr, err := runProbes(ctx, o, tr, &t)
		if err != nil {
			return nil, err
		}
		layers := tr.Layers()
		for _, part := range [][]LayerStat{tracedPass.fig.layers, tracedPass.pm.layers} {
			for _, l := range part {
				acc := layers[l.Name]
				acc.Name = l.Name
				acc.Count += l.Count
				acc.TotalMs += l.TotalMs
				acc.SelfMs += l.SelfMs
				layers[l.Name] = acc
			}
		}
		out.Metrics = perLayer(o.workload, untraced, tracedPass, pr, layers)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-%d.json", o.workload, o.seed, os.Getpid()))
		if err := tr.WriteFile(path); err != nil {
			return nil, err
		}
		PrintLayers(os.Stderr, "traced run ("+path+")", layers)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out.Attempted, out.Failed = t.attempted, t.failed
	out.Correct = t.failed == 0 && len(t.broken) == 0 && t.attempted > 0
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "bench: check failed:", n)
	}
	for _, n := range t.broken {
		fmt.Fprintln(os.Stderr, "bench: run failed:", n)
	}
	return out, nil
}

// passResult is one measurement of all three surfaces.
type passResult struct {
	fig figResult
	srv serveResult
	pm  pmemResult
}

// primaryShare is the part of --seconds the requested workload's surface
// gets; the other two surfaces split the rest.
const primaryShare = 0.4

// measure measures all three surfaces, so every run reports every
// end-to-end metric. It interleaves them — a figure sample, a pmem sample,
// a slice of server traffic, and again — until each surface has used its
// share of --seconds, so each surface's numbers span the whole run rather
// than one stretch of it, and a passing burst of outside load shifts all
// of them a little instead of one of them a lot.
func measure(ctx context.Context, o *options, tr *Tracer, t *tally) (passResult, error) {
	var p passResult
	primary := time.Duration(primaryShare * float64(o.seconds))
	other := time.Duration((1 - primaryShare) / 2 * float64(o.seconds))
	serveShare, pmemShare := other, primary
	if o.workload == wServe {
		serveShare, pmemShare = primary, other
	}
	fig := startFigures(o, tr, t)
	pm := startPmem(o, tr, t)
	srv, err := startServe(ctx, o, serveShare, tr, t)
	if err != nil {
		return p, fmt.Errorf("serve: %w", err)
	}
	defer srv.close()

	type surface struct {
		name         string
		budget, used time.Duration
		step         func(context.Context, time.Duration) (time.Duration, error)
	}
	surfaces := []*surface{
		{name: "figures", budget: other, step: fig.sample},
		{name: "pmem", budget: pmemShare, step: pm.sample},
		{name: "serve", budget: serveShare, step: srv.slice},
	}
	for busy := true; busy; {
		busy = false
		for _, s := range surfaces {
			if s.used >= s.budget {
				continue
			}
			d, err := s.step(ctx, s.budget-s.used)
			if err != nil {
				return p, fmt.Errorf("%s: %w", s.name, err)
			}
			s.used += d
			busy = true
		}
	}
	if p.fig, err = fig.finish(ctx); err != nil {
		return p, fmt.Errorf("figures: %w", err)
	}
	p.pm = pm.finish()
	if p.srv, err = srv.finish(ctx); err != nil {
		return p, fmt.Errorf("serve: %w", err)
	}
	return p, nil
}

// endToEnd maps a pass onto the end-to-end metrics. setup_s and
// peak_rss_mb belong to the workload the run was asked for.
func endToEnd(workload string, p passResult) map[string]metric {
	m := map[string]metric{
		"figures_cold_s":    {median(p.fig.coldS), "s"},
		"figures_warm_s":    {median(p.fig.warmS), "s"},
		"run_hit_p50_ms":    {quantile(p.srv.hitMs, 0.5), "ms"},
		"run_miss_p50_ms":   {quantile(p.srv.missMs, 0.5), "ms"},
		"run_p95_ms":        {quantile(p.srv.allMs, 0.95), "ms"},
		"sweep_ttfr_p50_ms": {quantile(p.srv.ttfrMs, 0.5), "ms"},
		"sweep_specs_per_s": {p.srv.specsPerS, "1/s"},
		"pmem_des_mb_s":     {median(p.pm.desMBs), "MB/s"},
		"pmem_aes_mb_s":     {median(p.pm.aesMBs), "MB/s"},
	}
	switch workload {
	case wServe:
		m["setup_s"] = metric{median(p.srv.setupS), "s"}
		m["peak_rss_mb"] = metric{p.srv.rssMB, "MB"}
	case wPmem:
		m["setup_s"] = metric{median(p.pm.setupS), "s"}
		m["peak_rss_mb"] = metric{median(p.pm.rssMB), "MB"}
	}
	return m
}

// tally counts checked operations and failures across a run.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string // first failures, for stderr
	broken    []string // run-level failures (growing backlog)
}

// check counts one checked operation and reports ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// add counts checks made elsewhere (in a child process).
func (t *tally) add(checked, failed int, notes []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += checked
	t.failed += failed
	for _, n := range notes {
		if len(t.notes) < 20 {
			t.notes = append(t.notes, n)
		}
	}
}

// fail marks the whole run as failed.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.broken = append(t.broken, fmt.Sprintf(format, args...))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// maxRSSMB is a finished child's peak resident set.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return 0
}
