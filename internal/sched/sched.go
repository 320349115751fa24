// Package sched runs several workloads through one simulated machine the
// way a multiprogrammed operating system would: round-robin time slices of
// a fixed instruction quantum, with every task switch charged its real
// microarchitectural cost — the cache hierarchy is invalidated (dirty lines
// drain through the protection scheme), and the scheme's own Section 4.3
// context-switch policy runs (flush-encrypt the SNC, or retag it per
// process).
//
// The paper argues in Section 4.3 that the SNC survives multiprogramming
// under either policy; this package is the end-to-end experiment behind
// that claim. Per-task slowdowns are reported against a solo run of the
// same workload on an identical machine, so the numbers isolate what
// co-scheduling (and the switch policy) costs on top of single-program
// execution.
package sched

import (
	"fmt"
	"strings"

	"secureproc/internal/core"
	"secureproc/internal/sim"
	"secureproc/internal/stats"
	"secureproc/internal/workload"
)

// DefaultQuantum is the slice length in instructions when a Config leaves
// it zero. 100K instructions at ~1 IPC is a ~100K-cycle slice — short for a
// real OS (which makes switch costs visible, the point of the experiment)
// but long enough that tasks rebuild cache state within a slice.
const DefaultQuantum = 100_000

// Config describes one multiprogrammed run.
type Config struct {
	// Sim is the machine configuration every task shares (including the
	// protection scheme and its switch= policy).
	Sim sim.Config
	// Quantum is the time-slice length in retired instructions; 0 means
	// DefaultQuantum.
	Quantum uint64
	// Scale multiplies each workload's measured phase lengths, exactly as
	// in single-program runs (warmup phases always run in full). It must
	// be positive; 1.0 is native length.
	Scale float64
	// SkipSolo disables the per-task solo baseline runs (Slowdown fields
	// stay zero). Useful when the caller only needs switch traffic.
	SkipSolo bool
}

// TaskResult is one task's share of a multiprogrammed run.
type TaskResult struct {
	// Bench is the workload name; PID is the process ID the scheduler
	// assigned (its index in the task list).
	Bench string
	PID   int
	// Cycles is the machine time attributed to this task's slices;
	// Instructions is what it retired in them.
	Cycles       uint64
	Instructions uint64
	// SoloCycles is the same workload run alone on an identical machine;
	// SlowdownPct is the multiprogramming penalty over that solo run.
	SoloCycles  uint64
	SlowdownPct float64
	// Slices is how many time slices the task received.
	Slices uint64
}

// Result is the outcome of one multiprogrammed run.
type Result struct {
	// Scheme is the protection scheme's figure label; Policy the scheme's
	// context-switch policy ("flush", "pid", or "-" for schemes without
	// per-process state).
	Scheme string
	Policy string
	// Quantum is the effective slice length in instructions.
	Quantum uint64
	// Switches counts task switches; the three Switch* fields aggregate
	// what those switches put on the machine.
	Switches uint64
	// SwitchWritebacks is dirty lines pushed out by switch invalidations.
	SwitchWritebacks uint64
	// SwitchSeqSpills is SNC flush traffic induced by switches (zero under
	// the pid policy — that is the policy's selling point).
	SwitchSeqSpills uint64
	// SwitchCycles is machine time spent inside switches (CPU stalls from
	// the writeback burst), not attributed to any task.
	SwitchCycles uint64
	// TotalCycles is the full run length on the shared machine.
	TotalCycles uint64
	// DemandTraffic is the run's line fills + writebacks — the denominator
	// for reporting switch-induced traffic as a percentage.
	DemandTraffic uint64
	// Tasks holds per-task accounting in scheduling order.
	Tasks []TaskResult
}

// Trace is one task's materialized record sequence: Recs is what
// workload.Materialize emits for the task's profile, and Warmup is the
// profile's WarmupRefs (clamped to len(Recs)). Warmup records never scale,
// so Recs[:Warmup] is the same at every workload scale.
type Trace struct {
	Bench  string
	Recs   []workload.Record
	Warmup int
}

// materialize generates one task's trace at the given scale.
func materialize(prof workload.Profile, scale float64) (Trace, error) {
	recs, err := workload.Materialize(prof, scale)
	if err != nil {
		return Trace{}, err
	}
	return NewTrace(prof, recs), nil
}

// NewTrace wraps records already materialized from prof (shared, never
// written) as a Trace.
func NewTrace(prof workload.Profile, recs []workload.Record) Trace {
	return Trace{Bench: prof.Name, Recs: recs, Warmup: min(prof.WarmupRefs(), len(recs))}
}

// state is the scheduler's own part of a run: everything besides the
// machine that the loop carries from one record to the next.
type state struct {
	// cur is the running task; sliceCycles and sliceInstr are the machine
	// clock and retired count when its current slice opened.
	cur                     int
	sliceCycles, sliceInstr uint64
	// pos is each task's replay cursor into its trace; tasks holds the
	// per-task accounting of the slices closed so far.
	pos   []int
	tasks []TaskResult
	// The four switch counters of Result.
	switches, switchWritebacks, switchSeqSpills, switchCycles uint64
}

// Prefix is a run frozen the first time one of its tasks reaches the end
// of its warmup records: the machine checkpoint (taken mid-slice, without a
// drain — the CPU snapshot carries the in-flight misses) plus the
// scheduler state. Every record stepped before that point is a warmup
// record, and warmup never scales, so a prefix is a pure function of the
// task list, the quantum and the machine configuration: a run over the
// same tasks at any scale passes through exactly this state, and
// RunTraces can resume it there. A Prefix is immutable; any number of runs
// may restore it concurrently.
type Prefix struct {
	quantum uint64
	cp      *sim.Checkpoint
	st      state
}

// clone deep-copies the slices so the copy and the original evolve
// independently.
func (s state) clone() state {
	s.pos = append([]int(nil), s.pos...)
	s.tasks = append([]TaskResult(nil), s.tasks...)
	return s
}

// check reports whether p can resume a run of traces at quantum: same
// tasks in the same order, every cursor still inside its warmup records.
func (p *Prefix) check(quantum uint64, traces []Trace) error {
	if p.quantum != quantum || len(p.st.tasks) != len(traces) {
		return fmt.Errorf("sched: prefix is for %d tasks at quantum %d, run has %d at %d",
			len(p.st.tasks), p.quantum, len(traces), quantum)
	}
	for i, tr := range traces {
		if p.st.tasks[i].Bench != tr.Bench || p.st.pos[i] > tr.Warmup {
			return fmt.Errorf("sched: prefix task %d (%s) does not match trace %s", i, p.st.tasks[i].Bench, tr.Bench)
		}
	}
	return nil
}

// Run time-slices the given workloads through one machine built from
// cfg.Sim. At least two workloads are required — that is what makes it
// multiprogramming.
func Run(cfg Config, profs []workload.Profile) (Result, error) {
	if len(profs) < 2 {
		return Result{}, fmt.Errorf("sched: need at least 2 workloads (got %d)", len(profs))
	}
	if cfg.Scale <= 0 {
		return Result{}, fmt.Errorf("sched: scale must be positive (got %g)", cfg.Scale)
	}
	traces := make([]Trace, len(profs))
	for i, p := range profs {
		tr, err := materialize(p, cfg.Scale)
		if err != nil {
			return Result{}, err
		}
		traces[i] = tr
	}
	res, _, err := run(cfg, traces, nil, false)
	return res, err
}

// RunBenchmarks is Run over benchmark names.
func RunBenchmarks(cfg Config, benches []string) (Result, error) {
	profs := make([]workload.Profile, len(benches))
	for i, b := range benches {
		p, ok := workload.ByName(b)
		if !ok {
			return Result{}, fmt.Errorf("sched: unknown benchmark %q", b)
		}
		profs[i] = p
	}
	return Run(cfg, profs)
}

// RunTraces time-slices one or more materialized traces through one
// machine built from cfg.Sim (cfg.Scale is unused: the traces are already
// scaled). A one-task run is a solo run; its TotalCycles is the solo
// baseline. With from == nil the run starts cold and also returns the
// prefix it passed through (nil when the scheme is not
// core.Snapshottable); with a prefix it restores it and runs only the rest.
// Either way the Result is identical to a straight-through run.
func RunTraces(cfg Config, traces []Trace, from *Prefix) (Result, *Prefix, error) {
	if len(traces) == 0 {
		return Result{}, nil, fmt.Errorf("sched: no tasks")
	}
	return run(cfg, traces, from, from == nil)
}

// Solo runs one workload alone, start to finish, on a fresh machine with
// the same configuration and measurement protocol as the sliced run
// (everything counts — multiprogrammed slices cannot exclude warmup, so
// the baseline must not either). Callers that sweep many multiprogrammed
// runs over the same workloads can memoize this and pass SkipSolo.
func Solo(cfg sim.Config, bench string, scale float64) (uint64, error) {
	prof, ok := workload.ByName(bench)
	if !ok {
		return 0, fmt.Errorf("sched: unknown benchmark %q", bench)
	}
	tr, err := materialize(prof, scale)
	if err != nil {
		return 0, err
	}
	res, _, err := run(Config{Sim: cfg, SkipSolo: true}, []Trace{tr}, nil, false)
	return res.TotalCycles, err
}

// run is the scheduler loop behind every entry point: round-robin slices
// of the quantum over per-task replay cursors until every trace is
// exhausted. capture asks for the prefix to be taken on the way; from
// resumes one. Unless cfg.SkipSolo, each task's solo baseline is a
// one-task run of this same loop over the same trace.
func run(cfg Config, traces []Trace, from *Prefix, capture bool) (Result, *Prefix, error) {
	quantum := cfg.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	sys, err := sim.New(cfg.Sim)
	if err != nil {
		return Result{}, nil, err
	}
	var st state
	// open marks a slice already in progress: a restored prefix was
	// captured mid-slice, so the loop re-enters it instead of opening one.
	open := false
	if from != nil {
		if err := from.check(quantum, traces); err != nil {
			return Result{}, nil, err
		}
		if err := sys.Restore(from.cp); err != nil {
			return Result{}, nil, err
		}
		st, open = from.st.clone(), true
	} else {
		st.pos = make([]int, len(traces))
		st.tasks = make([]TaskResult, len(traces))
		for i, tr := range traces {
			st.tasks[i] = TaskResult{Bench: tr.Bench, PID: i}
		}
	}
	var prefix *Prefix

	// Round-robin until every trace is exhausted. The machine starts on
	// task 0 with no switch charged (cold start, not a context switch).
	// No task is exhausted at a prefix, so a restored run has them all.
	done := make([]bool, len(traces))
	running := len(traces)
	for running > 0 {
		cur := st.cur
		if done[cur] {
			st.cur = (cur + 1) % len(traces)
			continue
		}
		t, tr := &st.tasks[cur], traces[cur]
		if !open {
			st.sliceCycles, st.sliceInstr = sys.Cycles(), sys.Retired()
		}
		open = false
		for sys.Retired()-st.sliceInstr < quantum {
			pos := st.pos[cur]
			if capture && pos == tr.Warmup {
				// Checked before exhaustion: a trace with an empty
				// measured phase must freeze at the same point as any
				// longer one.
				capture = false
				if cp, ok := sys.Checkpoint(); ok {
					prefix = &Prefix{quantum: quantum, cp: cp, st: st.clone()}
				}
			}
			if pos == len(tr.Recs) {
				done[cur] = true
				running--
				break
			}
			sys.Step(tr.Recs[pos])
			st.pos[cur] = pos + 1
		}
		t.Slices++
		t.Cycles += sys.Cycles() - st.sliceCycles
		t.Instructions += sys.Retired() - st.sliceInstr

		// Find the next runnable task; switch only if it is a different one.
		next := cur
		for i := 1; i <= len(traces); i++ {
			cand := (cur + i) % len(traces)
			if !done[cand] {
				next = cand
				break
			}
		}
		if running > 0 && next != cur {
			// In-flight fills complete before the caches are torn down;
			// their latency belongs to the task that issued them.
			drain0 := sys.Cycles()
			sys.Drain()
			t.Cycles += sys.Cycles() - drain0
			before := sys.Cycles()
			cost := sys.ContextSwitch(st.tasks[next].PID)
			st.switches++
			st.switchWritebacks += cost.DirtyWritebacks
			st.switchSeqSpills += cost.SeqSpills
			st.switchCycles += sys.Cycles() - before
			st.cur = next
		}
	}
	// Outstanding misses of the last slice drain on its task's account.
	drainStart := sys.Cycles()
	sys.Drain()
	st.tasks[st.cur].Cycles += sys.Cycles() - drainStart

	res := Result{
		Scheme:           sys.Scheme().Name(),
		Policy:           policyLabel(sys),
		Quantum:          quantum,
		Switches:         st.switches,
		SwitchWritebacks: st.switchWritebacks,
		SwitchSeqSpills:  st.switchSeqSpills,
		SwitchCycles:     st.switchCycles,
		TotalCycles:      sys.Cycles(),
		DemandTraffic:    sys.BusDemandTransactions(),
		Tasks:            st.tasks,
	}
	if !cfg.SkipSolo {
		for i := range res.Tasks {
			solo, _, err := run(Config{Sim: cfg.Sim, SkipSolo: true}, traces[i:i+1], nil, false)
			if err != nil {
				return Result{}, nil, err
			}
			t := &res.Tasks[i]
			t.SoloCycles = solo.TotalCycles
			if t.SoloCycles > 0 {
				t.SlowdownPct = 100 * (float64(t.Cycles)/float64(t.SoloCycles) - 1)
			}
		}
	}
	return res, prefix, nil
}

// policyLabel reads the scheme's context-switch policy for reporting; "-"
// for schemes without per-process state.
func policyLabel(sys *sim.System) string {
	if sp, ok := sys.Scheme().(interface{ SwitchPolicy() core.SwitchPolicy }); ok {
		return sp.SwitchPolicy().String()
	}
	return "-"
}

// Render formats the result as a text table plus the switch summary line.
func (r Result) Render() string {
	var b strings.Builder
	t := stats.NewTable(
		fmt.Sprintf("%s multiprogrammed, switch=%s, quantum=%d instr", r.Scheme, r.Policy, r.Quantum),
		"task", "pid", "slices", "cycles", "instructions", "solo-cycles", "slowdown%")
	for _, task := range r.Tasks {
		t.AddRow(task.Bench, fmt.Sprint(task.PID), fmt.Sprint(task.Slices),
			fmt.Sprint(task.Cycles), fmt.Sprint(task.Instructions),
			fmt.Sprint(task.SoloCycles), fmt.Sprintf("%.2f", task.SlowdownPct))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "switches: %d (%d dirty writebacks, %d seq spills, %d cycles outside any task)\n",
		r.Switches, r.SwitchWritebacks, r.SwitchSeqSpills, r.SwitchCycles)
	return b.String()
}
