// Package workload generates synthetic memory-reference traces that stand
// in for the paper's SPEC CPU2000 benchmarks.
//
// We cannot run SPEC binaries under a Go reproduction, so each benchmark is
// modelled as a mixture of access patterns calibrated on the four axes that
// drive every figure in the paper:
//
//  1. L2 miss density (how many misses per instruction reach the bus),
//  2. miss dependence (pointer chasing exposes full latency; streaming
//     overlaps),
//  3. L2-miss footprint vs. SNC coverage (whether sequence numbers fit in
//     32/64/128KB SNCs),
//  4. hot/cold reuse split (whether a no-replacement SNC captures the lines
//     that matter).
//
// See DESIGN.md for the per-benchmark stories behind the parameters.
package workload

import (
	"fmt"
	"math/rand"
)

// Kind is the type of a trace record.
type Kind uint8

const (
	// Load is a data read.
	Load Kind = iota
	// Store is a data write.
	Store
	// IFetch is an instruction-stream access (distinct line address space).
	IFetch
)

// Record is one memory reference plus the compute work preceding it.
type Record struct {
	// Gap is the number of non-memory instructions issued before this
	// reference.
	Gap uint32
	// Kind classifies the reference.
	Kind Kind
	// Addr is the virtual byte address.
	Addr uint64
	// Depends marks a load that consumes the previous load's value
	// (pointer chasing).
	Depends bool
}

// Stream produces trace records until exhaustion.
type Stream interface {
	// Next returns the next record; ok=false at end of trace.
	Next() (rec Record, ok bool)
}

// Pattern selects how a region generates addresses.
type Pattern int

const (
	// SequentialPattern streams through the region with a fixed stride,
	// wrapping around (array sweeps; art, equake).
	SequentialPattern Pattern = iota
	// RandomPattern picks uniform random line-granular addresses (hash
	// tables, allocators).
	RandomPattern
	// PointerChasePattern picks random addresses with every load dependent
	// on the previous one (mcf's linked structures).
	PointerChasePattern
	// StridedPattern walks with a large power-of-two stride, wrapping —
	// pathological for set-associative SNCs (ammp in Figure 7).
	StridedPattern
)

// Region is one address range with an access behaviour.
type Region struct {
	// Base and Size delimit the region (bytes).
	Base, Size uint64
	// Pattern selects address generation.
	Pattern Pattern
	// Stride is the step for Sequential/Strided patterns (bytes).
	Stride uint64
	// Weight is the relative probability of this region being chosen for
	// a reference within its phase.
	Weight float64
	// StoreFrac is the fraction of references that are stores.
	StoreFrac float64
	// DependFrac is the fraction of loads that depend on the previous
	// load (PointerChasePattern forces 1.0).
	DependFrac float64
}

// Phase is a stretch of execution with a fixed region mixture.
type Phase struct {
	// Refs is the number of memory references the phase emits at scale 1.
	Refs int
	// Gap is the mean number of non-memory instructions between
	// references.
	Gap int
	// Regions is the mixture (weights need not sum to 1).
	Regions []Region
	// Warmup marks the phase as warm-up: the simulator runs it but
	// excludes it from measurement, mirroring the paper's 10-billion
	// instruction fast-forward. Warmup phases must precede measured ones.
	Warmup bool
}

// Profile describes one synthetic benchmark.
type Profile struct {
	// Name is the SPEC benchmark this profile stands in for.
	Name string
	// Seed makes the trace deterministic.
	Seed int64
	// Phases run in order.
	Phases []Phase
	// CodeBase/CodeSize delimit the instruction footprint; IFetchFrac of
	// references are instruction-stream accesses walking it.
	CodeBase, CodeSize uint64
	// IFetchFrac is the fraction of references that touch the code
	// region.
	IFetchFrac float64
}

// Validate reports profile construction errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile needs a name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Refs <= 0 {
			return fmt.Errorf("workload %s phase %d: refs must be positive", p.Name, i)
		}
		if len(ph.Regions) == 0 {
			return fmt.Errorf("workload %s phase %d: no regions", p.Name, i)
		}
		total := 0.0
		for j, r := range ph.Regions {
			if r.Size == 0 {
				return fmt.Errorf("workload %s phase %d region %d: zero size", p.Name, i, j)
			}
			if r.Weight < 0 {
				return fmt.Errorf("workload %s phase %d region %d: negative weight", p.Name, i, j)
			}
			total += r.Weight
		}
		if total <= 0 {
			return fmt.Errorf("workload %s phase %d: zero total weight", p.Name, i)
		}
	}
	if p.IFetchFrac > 0 && p.CodeSize == 0 {
		return fmt.Errorf("workload %s: ifetch fraction without code size", p.Name)
	}
	seenMeasured := false
	for i, ph := range p.Phases {
		if !ph.Warmup {
			seenMeasured = true
		} else if seenMeasured {
			return fmt.Errorf("workload %s phase %d: warmup phase after measured phase", p.Name, i)
		}
	}
	return nil
}

// WarmupRefs returns the number of references in warmup phases. Warmup
// phases always run at full size regardless of the stream scale: they exist
// to establish cache/SNC state, which is size-dependent, not time-dependent.
func (p Profile) WarmupRefs() int {
	n := 0
	for _, ph := range p.Phases {
		if ph.Warmup {
			n += ph.Refs
		}
	}
	return n
}

// regionState holds per-region cursors.
type regionState struct {
	spec   Region
	cursor uint64
}

// generator implements Stream for a Profile.
type generator struct {
	prof    Profile
	rng     *rand.Rand
	scale   float64
	phase   int
	emitted int // refs emitted in current phase
	regions []regionState
	weights []float64
	codePos uint64
	// cursors persists sequential/strided positions across phases keyed by
	// region base, so a region revisited in a later phase continues its
	// walk instead of artificially rewinding (which would fabricate short
	// reuse distances at the warmup/measurement boundary).
	cursors map[uint64]uint64
}

// NewStream builds a deterministic trace stream for the profile. scale
// multiplies each phase's reference count (1.0 = the profile's native
// length).
func NewStream(p Profile, scale float64) (Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload %s: scale must be positive", p.Name)
	}
	g := &generator{
		prof:    p,
		rng:     rand.New(rand.NewSource(p.Seed)),
		scale:   scale,
		cursors: make(map[uint64]uint64),
	}
	g.loadPhase(0)
	return g, nil
}

func (g *generator) loadPhase(i int) {
	// Save outgoing cursors before switching mixtures.
	for _, st := range g.regions {
		g.cursors[st.spec.Base] = st.cursor
	}
	g.phase = i
	g.emitted = 0
	ph := g.prof.Phases[i]
	g.regions = g.regions[:0]
	g.weights = g.weights[:0]
	sum := 0.0
	for _, r := range ph.Regions {
		g.regions = append(g.regions, regionState{spec: r, cursor: g.cursors[r.Base]})
		sum += r.Weight
		g.weights = append(g.weights, sum)
	}
	for j := range g.weights {
		g.weights[j] /= sum
	}
}

func (g *generator) phaseRefs() int {
	ph := g.prof.Phases[g.phase]
	if ph.Warmup {
		return ph.Refs // warmup establishes state; never scaled
	}
	return int(float64(ph.Refs) * g.scale)
}

// Next implements Stream.
func (g *generator) Next() (Record, bool) {
	for g.emitted >= g.phaseRefs() {
		if g.phase+1 >= len(g.prof.Phases) {
			return Record{}, false
		}
		g.loadPhase(g.phase + 1)
	}
	g.emitted++
	ph := g.prof.Phases[g.phase]

	gap := uint32(0)
	if ph.Gap > 0 {
		// Geometric-ish jitter around the mean keeps the issue stream from
		// beating against cache geometry.
		gap = uint32(g.rng.Intn(ph.Gap*2 + 1))
	}

	// Instruction-stream references walk the code region sequentially with
	// occasional jumps (function calls).
	if g.prof.IFetchFrac > 0 && g.rng.Float64() < g.prof.IFetchFrac {
		if g.rng.Float64() < 0.05 {
			g.codePos = uint64(g.rng.Int63n(int64(g.prof.CodeSize)))
		}
		addr := g.prof.CodeBase + g.codePos
		g.codePos = (g.codePos + 64) % g.prof.CodeSize
		return Record{Gap: gap, Kind: IFetch, Addr: addr}, true
	}

	// Pick a region by weight.
	x := g.rng.Float64()
	ri := len(g.weights) - 1
	for j, w := range g.weights {
		if x < w {
			ri = j
			break
		}
	}
	st := &g.regions[ri]
	spec := st.spec

	var addr uint64
	depends := false
	switch spec.Pattern {
	case SequentialPattern:
		addr = spec.Base + st.cursor
		st.cursor = (st.cursor + spec.Stride) % spec.Size
	case StridedPattern:
		addr = spec.Base + st.cursor
		st.cursor += spec.Stride
		if st.cursor >= spec.Size {
			// Wrap with a small offset so successive sweeps touch
			// neighbouring lines.
			st.cursor = (st.cursor + 8) % spec.Stride
		}
	case RandomPattern:
		addr = spec.Base + uint64(g.rng.Int63n(int64(spec.Size)))&^7
	case PointerChasePattern:
		addr = spec.Base + uint64(g.rng.Int63n(int64(spec.Size)))&^7
		depends = true
	}

	kind := Load
	if g.rng.Float64() < spec.StoreFrac {
		kind = Store
	}
	if kind == Load && !depends && spec.DependFrac > 0 {
		depends = g.rng.Float64() < spec.DependFrac
	}
	return Record{Gap: gap, Kind: kind, Addr: addr, Depends: depends}, true
}

// Collect drains a stream into a slice (test helper and small demos).
func Collect(s Stream) []Record { return collectInto(nil, s) }

// collectInto drains s appending to recs (which may carry preallocated
// capacity) — the shared body of Collect and Materialize.
func collectInto(recs []Record, s Stream) []Record {
	for {
		r, ok := s.Next()
		if !ok {
			return recs
		}
		recs = append(recs, r)
	}
}

// replay is a Stream over pre-materialized records: a cursor and a slice.
type replay struct {
	recs []Record
	i    int
}

// Next implements Stream.
func (r *replay) Next() (Record, bool) {
	if r.i >= len(r.recs) {
		return Record{}, false
	}
	rec := r.recs[r.i]
	r.i++
	return rec, true
}

// Replay wraps pre-materialized records as a Stream. Several Replay streams
// may share one record slice concurrently: the cursor is per-stream and the
// records are never written.
func Replay(recs []Record) Stream { return &replay{recs: recs} }

// Materialize generates the profile's full trace into a slice, producing
// exactly the records NewStream would emit at the same scale. Sweeps that
// run one benchmark under many configurations materialize the trace once
// and Replay it per run, taking trace generation (and its RNG) off the
// simulation hot path.
func Materialize(p Profile, scale float64) ([]Record, error) {
	stream, err := NewStream(p, scale)
	if err != nil {
		return nil, err
	}
	refs := p.WarmupRefs()
	for _, ph := range p.Phases {
		if !ph.Warmup {
			refs += int(float64(ph.Refs) * scale)
		}
	}
	return collectInto(make([]Record, 0, refs), stream), nil
}
