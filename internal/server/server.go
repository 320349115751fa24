package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secureproc/internal/api"
	"secureproc/internal/cluster"
	"secureproc/internal/core"
	"secureproc/internal/dispatch"
	"secureproc/internal/experiments"
	"secureproc/internal/sim"
	"secureproc/internal/store"
	"secureproc/internal/workload"
)

// Config sizes the service's runner. The zero value is a production-ish
// default: native workload scale, GOMAXPROCS concurrent simulations,
// unbounded memos, unbounded admission, single-node (no cluster).
type Config struct {
	// Scale is the workload scale for every simulation (0 = 1.0 native).
	Scale float64
	// Jobs caps concurrent simulations in sweep fan-out (0 = GOMAXPROCS).
	Jobs int
	// Capacity bounds the result memo (LRU; 0 = unbounded). In-flight
	// simulations are pinned and never evicted.
	Capacity int
	// TraceCapacity bounds the materialized-trace memo (0 = unbounded).
	TraceCapacity int
	// StoreDir, when non-empty, persists completed results under this
	// directory (keyed by run configuration and sim.TimingModelVersion) so
	// a restarted service answers repeated requests without re-simulating.
	StoreDir string
	// MaxAdmit bounds concurrently admitted simulation requests (/v1/run,
	// /v1/sweep, /v1/figures) — distinct from Jobs, which bounds executing
	// simulations. Beyond the cap, requests are rejected immediately with
	// 429 + Retry-After instead of queueing unboundedly. 0 = unbounded.
	MaxAdmit int
	// Stream makes /v1/sweep stream each result as an NDJSON line the
	// moment it lands, by default; individual requests override with the
	// "stream" field or an "Accept: application/x-ndjson" header.
	Stream bool
	// Cluster, when non-nil, joins this node to a sharded fleet at startup
	// (equivalent to calling EnableCluster after New).
	Cluster *ClusterConfig
}

// ClusterConfig joins the node to a static fleet: requests whose canonical
// run key hashes to another member are forwarded there, so the fleet's
// memos partition instead of duplicating.
type ClusterConfig struct {
	// Self is this node's advertised host:port on the ring.
	Self string
	// Peers lists the other members (self included or not).
	Peers []string
	// HopLimit caps forwards per request (0 = cluster.DefaultHopLimit).
	HopLimit int
	// ForwardTimeout bounds one forwarded request (0 = default).
	ForwardTimeout time.Duration
	// Cooldown is the down-peer probation window (0 = default).
	Cooldown time.Duration
	// BatchWindow, when > 0, holds locally-owned /v1/run requests for this
	// long and executes each window's distinct specs as one batch.
	BatchWindow time.Duration
	// Client overrides the forwarding HTTP client (tests).
	Client *http.Client
}

// clusterState bundles the fabric with its optional batching window; the
// server holds it behind one atomic pointer so cluster mode can be enabled
// after listeners are up (tests learn their addresses first) without racing
// request handlers.
type clusterState struct {
	fabric  *cluster.Fabric
	batcher *cluster.Batcher
}

// Server is the secsimd HTTP handler: /v1/run, /v1/sweep,
// /v1/figures/{name}, /v1/schemes, /v1/benchmarks, /v1/cluster/stats,
// /healthz and /metrics. See internal/api for the wire contract.
type Server struct {
	runner    *experiments.Runner
	admission *dispatch.Admission
	stream    bool
	mux       *http.ServeMux
	start     time.Time
	cluster   atomic.Pointer[clusterState]

	// Per-endpoint request counters for /metrics.
	runReqs, sweepReqs, figureReqs, listReqs, healthReqs, metricReqs, clusterReqs atomic.Int64

	// encMu guards encFails: response bodies that failed to encode
	// mid-write, keyed by the same endpoint names as the request
	// counters (plus "router" and "admission" for the middleware).
	// In practice a failure means the client hung up after the status
	// line was committed — invisible on the wire, so it is counted here
	// and surfaced in /metrics instead of silently dropped.
	encMu    sync.Mutex
	encFails map[string]int64
}

// New builds the service over a fresh Runner. Failure modes are an
// unusable StoreDir or an unusable cluster membership.
func New(cfg Config) (*Server, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	r := experiments.NewRunner(cfg.Scale)
	r.Jobs = cfg.Jobs
	r.Capacity = cfg.Capacity
	r.TraceCapacity = cfg.TraceCapacity
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, sim.TimingModelVersion)
		if err != nil {
			return nil, err
		}
		r.Store = st
	}
	s := &Server{
		runner:    r,
		admission: dispatch.NewAdmission(cfg.MaxAdmit),
		stream:    cfg.Stream,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		encFails:  make(map[string]int64),
	}
	s.mux.HandleFunc("POST /v1/run", s.admit(s.handleRun))
	s.mux.HandleFunc("POST /v1/sweep", s.admit(s.handleSweep))
	s.mux.HandleFunc("GET /v1/figures/{name}", s.admit(s.handleFigure))
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /v1/cluster/stats", s.handleClusterStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Method-less fallbacks so a wrong-method request gets the API's 405
	// envelope (with Allow) instead of the mux's plain-text default, and
	// everything else gets the 404 envelope.
	s.mux.HandleFunc("/v1/run", s.methodNotAllowed(http.MethodPost))
	s.mux.HandleFunc("/v1/sweep", s.methodNotAllowed(http.MethodPost))
	s.mux.HandleFunc("/v1/figures/{name}", s.methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/v1/schemes", s.methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/v1/benchmarks", s.methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/v1/cluster/stats", s.methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/healthz", s.methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/metrics", s.methodNotAllowed(http.MethodGet))
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeAPIError(w, "router", api.Errorf(api.CodeNotFound, "no such endpoint: %s", r.URL.Path))
	})
	if cfg.Cluster != nil {
		if err := s.EnableCluster(*cfg.Cluster); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// EnableCluster joins the node to the fleet described by cfg. It may be
// called after the listener is up (tests construct servers first, learn
// their addresses, then wire the ring); requests arriving before it is
// called execute purely locally.
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	f, err := cluster.New(cluster.Config{
		Self:           cfg.Self,
		Peers:          cfg.Peers,
		HopLimit:       cfg.HopLimit,
		ForwardTimeout: cfg.ForwardTimeout,
		Cooldown:       cfg.Cooldown,
		Client:         cfg.Client,
	})
	if err != nil {
		return err
	}
	var b *cluster.Batcher
	if cfg.BatchWindow > 0 {
		b = f.NewBatcher(cfg.BatchWindow, func(ctx context.Context, specs []experiments.Spec, each func(int, sim.Result, error)) error {
			// Batches execute under one synthetic fairness owner: the
			// window already mixed multiple clients' specs together.
			return s.runner.SweepEach(dispatch.WithOwner(ctx, "cluster-batch", runWeight), specs, each)
		})
	}
	s.cluster.Store(&clusterState{fabric: f, batcher: b})
	return nil
}

// Fairness weights for the dispatcher's per-owner queues: one interactive
// /v1/run job counts as four sweep jobs, so a caller probing individual
// configurations stays responsive while a bulk sweep grinds through its
// fan-out on the same worker budget.
const (
	runWeight   = 4
	sweepWeight = 1
)

// clientOwner identifies the request's fairness owner: the X-Client-ID
// header (which the fabric propagates on forwards, so a client keeps one
// queue fleet-wide), else the remote host.
func clientOwner(r *http.Request) string {
	owner := r.Header.Get(api.HeaderClientID)
	if owner == "" {
		owner = r.RemoteAddr
		if host, _, err := net.SplitHostPort(owner); err == nil {
			owner = host
		}
	}
	return owner
}

// ownerCtx tags the request context for the fairness queue: jobs from the
// same client share one queue and compete fairly with every other client's.
func ownerCtx(r *http.Request, weight int) context.Context {
	return dispatch.WithOwner(r.Context(), clientOwner(r), weight)
}

// admit gates a simulation-triggering handler behind the admission cap:
// beyond MaxAdmit concurrently admitted requests the caller gets 429 with
// a Retry-After estimate instead of holding queue space. The estimate is
// per-owner — observed request duration scaled by *this client's* queue
// depth — so a light client behind one heavy sweeper is told to come back
// in seconds, not after the sweeper's whole backlog. Listings, health and
// metrics stay un-gated so a saturated service remains observable.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admission.TryAdmit()
		if !ok {
			ra := s.admission.RetryAfterFor(s.runner.OwnerQueued(clientOwner(r)))
			secs := int64((ra + time.Second - 1) / time.Second)
			e := api.Errorf(api.CodeOverloaded, "server at admission capacity; retry after %ds", secs)
			e.RetryAfterS = secs
			s.writeAPIError(w, "admission", e)
			return
		}
		defer release()
		h(w, r)
	}
}

// Runner exposes the underlying runner (diagnostics and tests).
func (s *Server) Runner() *experiments.Runner { return s.runner }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// noteEncodeFailure counts a response body that failed to encode after
// the status line was committed; per-endpoint totals surface in /metrics.
func (s *Server) noteEncodeFailure(endpoint string) {
	s.encMu.Lock()
	s.encFails[endpoint]++
	s.encMu.Unlock()
}

// encodeFailures snapshots the per-endpoint encode-failure counters.
func (s *Server) encodeFailures() map[string]int64 {
	s.encMu.Lock()
	defer s.encMu.Unlock()
	out := make(map[string]int64, len(s.encFails))
	for k, v := range s.encFails {
		out[k] = v
	}
	return out
}

// writeJSON writes v through the api helper, recording an encode failure
// against the endpoint counter instead of discarding it.
func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, status int, v any) {
	if api.WriteJSON(w, status, v) != nil {
		s.noteEncodeFailure(endpoint)
	}
}

// writeAPIError writes a ready-made envelope, recording encode failures.
func (s *Server) writeAPIError(w http.ResponseWriter, endpoint string, e *api.Error) {
	if api.WriteError(w, e) != nil {
		s.noteEncodeFailure(endpoint)
	}
}

// writeError maps err onto the API error envelope: an *api.Error passes
// through unchanged (a forwarded peer's envelope keeps its code), anything
// else is wrapped under the given default code.
func (s *Server) writeError(w http.ResponseWriter, endpoint, code string, err error) {
	var ae *api.Error
	if errors.As(err, &ae) {
		s.writeAPIError(w, endpoint, ae)
		return
	}
	s.writeAPIError(w, endpoint, api.Errorf(code, "%s", err.Error()))
}

// methodNotAllowed answers a known route hit with the wrong method.
func (s *Server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeAPIError(w, "router", api.Errorf(api.CodeMethodNotAllowed, "method %s not allowed on %s; use %s", r.Method, r.URL.Path, allow))
	}
}

// checkVersion rejects requests whose X-Secsim-Api-Version header names a
// contract this node does not speak — a mixed-version fleet fails loudly
// at the boundary instead of misparsing forwarded payloads.
func (s *Server) checkVersion(w http.ResponseWriter, r *http.Request) bool {
	if v := r.Header.Get(api.HeaderAPIVersion); v != "" && v != api.Version {
		s.writeAPIError(w, "router", api.Errorf(api.CodeUnsupportedVersion, "api version %q not supported (this node speaks %q)", v, api.Version))
		return false
	}
	return true
}

// parseHops reads the forward count a request accumulated in the fabric;
// absent or malformed means it came straight from a client.
func parseHops(r *http.Request) int {
	n, err := strconv.Atoi(r.Header.Get(api.HeaderHops))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// await runs fn detached from the request and waits for either the result
// or the request context. On cancellation the caller returns promptly with
// ctx.Err() while fn keeps running — for simulations that means the work
// still lands in the shared memo for the next request. A panicking fn is
// contained here (the simulation layer re-raises recorded panics in the
// owning goroutine) so one poisoned request cannot take the service down.
func await[T any](ctx context.Context, fn func() (T, error)) (T, error) {
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				var zero T
				ch <- outcome{zero, fmt.Errorf("internal error: %v", p)}
			}
		}()
		v, err := fn()
		ch <- outcome{v, err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.runReqs.Add(1)
	if !s.checkVersion(w, r) {
		return
	}
	var req api.RunRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, "run", api.CodeBadRequest, err)
		return
	}
	specs, err := req.Specs(false)
	if err != nil {
		s.writeError(w, "run", api.CodeBadRequest, err)
		return
	}
	spec := specs[0]
	hops := parseHops(r)
	cs := s.cluster.Load()

	// Cluster routing: a spec owned by a peer forwards there (once, with a
	// retry); an unreachable owner degrades to local execution rather than
	// failing the request, and an exhausted hop budget — possible only on
	// an inconsistent ring — stops the loop by serving locally.
	if cs != nil {
		if owner, local := cs.fabric.Owner(spec.CanonicalKey()); !local {
			if hops >= cs.fabric.HopLimit() {
				cs.fabric.NoteHopLimit()
			} else {
				var out api.RunResponse
				apiErr, ok := cs.fabric.Forward(r.Context(), owner, "/"+api.Version+"/run", hops,
					r.Header.Get(api.HeaderClientID), api.RequestOf(spec), &out)
				if ok {
					if apiErr != nil {
						s.writeAPIError(w, "run", apiErr)
						return
					}
					s.writeJSON(w, "run", http.StatusOK, out)
					return
				}
				// Owner down: fall through to local execution.
			}
		}
		if hops > 0 {
			cs.fabric.NoteServedForwarded()
		}
	}

	// RunDispatched queues the job under this client's fairness owner and
	// releases a cancelled caller promptly while a simulation already
	// underway completes detached into the shared memo. With a batching
	// window configured, locally-owned runs instead collect for one window
	// and execute as a deduplicated batch.
	var res sim.Result
	if cs != nil && cs.batcher != nil {
		res, err = cs.batcher.Run(ownerCtx(r, runWeight), spec)
	} else {
		res, err = s.runner.RunDispatched(ownerCtx(r, runWeight), spec)
	}
	if err != nil {
		if r.Context().Err() != nil {
			// Client is gone; nothing useful to write.
			return
		}
		s.writeError(w, "run", api.CodeInternal, err)
		return
	}
	s.writeJSON(w, "run", http.StatusOK, api.RunResponse{Spec: api.SpecOf(spec), Result: res})
}

// streaming resolves whether this sweep answers as an NDJSON stream: the
// request's own "stream" field wins, then an Accept asking for NDJSON,
// then the server's -stream default.
func (s *Server) streaming(req api.SweepRequest, r *http.Request) bool {
	if req.Stream != nil {
		return *req.Stream
	}
	if strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
		return true
	}
	return s.stream
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.sweepReqs.Add(1)
	if !s.checkVersion(w, r) {
		return
	}
	var req api.SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, "sweep", api.CodeBadRequest, err)
		return
	}
	if len(req.Specs) == 0 {
		s.writeError(w, "sweep", api.CodeBadRequest, fmt.Errorf("sweep needs at least one spec"))
		return
	}
	var specs []experiments.Spec
	for i, sr := range req.Specs {
		expanded, err := sr.Specs(true)
		if err != nil {
			s.writeError(w, "sweep", api.CodeBadRequest, fmt.Errorf("spec %d: %w", i, err))
			return
		}
		specs = append(specs, expanded...)
	}
	hops := parseHops(r)
	cs := s.cluster.Load()
	if cs != nil && hops > 0 {
		cs.fabric.NoteServedForwarded()
	}

	// runAll fans the expanded specs out — sharded across the ring when
	// cluster mode is on, straight through the fair dispatcher otherwise —
	// and reports each outcome through emit exactly once. Callbacks are
	// serialized in both paths.
	runAll := func(emit func(i int, res sim.Result, err error)) error {
		if cs == nil {
			return s.runner.SweepEach(ownerCtx(r, sweepWeight), specs, emit)
		}
		return s.sweepCluster(cs, r, specs, hops, emit)
	}

	if s.streaming(req, r) {
		s.streamSweep(w, r, specs, runAll)
		return
	}
	// Buffered mode still fans out through the fair dispatcher under the
	// request context: a client that gives up sheds its queued specs (the
	// backpressure point of admission control) while specs already
	// simulating complete detached and stay memoized for the next caller.
	results := make([]api.RunResponse, len(specs))
	err := runAll(func(i int, res sim.Result, err error) {
		if err == nil {
			results[i] = api.RunResponse{Spec: api.SpecOf(specs[i]), Result: res}
		}
	})
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		s.writeError(w, "sweep", api.CodeInternal, err)
		return
	}
	s.writeJSON(w, "sweep", http.StatusOK, api.SweepResponse{Count: len(specs), Results: results})
}

// sweepCluster shards one expanded sweep across the ring: each peer-owned
// group of specs forwards as one buffered sub-sweep (in parallel, with the
// usual down-peer degradation to local execution), while locally-owned
// specs run through this node's dispatcher. emit is serialized internally.
func (s *Server) sweepCluster(cs *clusterState, r *http.Request, specs []experiments.Spec, hops int, emit func(i int, res sim.Result, err error)) error {
	f := cs.fabric
	atLimit := hops >= f.HopLimit()
	groups := make(map[string][]int)
	var localIdx []int
	for i, sp := range specs {
		owner, local := f.Owner(sp.CanonicalKey())
		switch {
		case local:
			localIdx = append(localIdx, i)
		case atLimit:
			f.NoteHopLimit()
			localIdx = append(localIdx, i)
		default:
			groups[owner] = append(groups[owner], i)
		}
	}

	var mu sync.Mutex // serializes emit across the per-owner goroutines
	safeEmit := func(i int, res sim.Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		emit(i, res, err)
	}
	var (
		errMu    sync.Mutex
		firstErr error
	)
	recordErr := func(err error) {
		errMu.Lock()
		defer errMu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	runLocally := func(idx []int) {
		group := make([]experiments.Spec, len(idx))
		for j, i := range idx {
			group[j] = specs[i]
		}
		err := s.runner.SweepEach(ownerCtx(r, sweepWeight), group, func(j int, res sim.Result, err error) {
			safeEmit(idx[j], res, err)
		})
		if err != nil {
			recordErr(err)
		}
	}

	clientID := r.Header.Get(api.HeaderClientID)
	noStream := false
	var wg sync.WaitGroup
	for addr, idx := range groups {
		wg.Add(1)
		go func(addr string, idx []int) {
			defer wg.Done()
			sub := api.SweepRequest{Stream: &noStream}
			for _, i := range idx {
				sub.Specs = append(sub.Specs, api.RequestOf(specs[i]))
			}
			var out api.SweepResponse
			apiErr, ok := f.Forward(r.Context(), addr, "/"+api.Version+"/sweep", hops, clientID, sub, &out)
			switch {
			case ok && apiErr == nil:
				for j, i := range idx {
					// A zero entry means the peer's sub-sweep dropped the
					// spec (its per-spec failure mode in buffered mode).
					if j < len(out.Results) && out.Results[j].Spec.Bench != "" {
						safeEmit(i, out.Results[j].Result, nil)
					} else {
						safeEmit(i, sim.Result{}, fmt.Errorf("peer %s failed spec %d", addr, i))
					}
				}
			case ok:
				// Clean API error from a healthy peer (e.g. its admission
				// gate): propagate per spec rather than bypassing it.
				for _, i := range idx {
					safeEmit(i, sim.Result{}, apiErr)
				}
			default:
				// Owner down: degrade this group to local execution.
				runLocally(idx)
			}
		}(addr, idx)
	}
	if len(localIdx) > 0 {
		runLocally(localIdx)
	}
	wg.Wait()
	return firstErr
}

// streamSweep answers a sweep as NDJSON: one StreamLine per spec as its
// simulation completes, then a StreamTrailer. Time-to-first-result is
// bounded by one simulation, not the whole fan-out, and a slow consumer
// never holds worker slots — lines buffer in the HTTP layer while the
// dispatcher keeps draining jobs.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, specs []experiments.Spec, runAll func(emit func(i int, res sim.Result, err error)) error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush() // commit the headers so the client sees the stream open
	}
	enc := json.NewEncoder(w)
	count := 0
	// Both runAll paths serialize callbacks, so the encoder and flusher
	// are never written concurrently.
	err := runAll(func(i int, res sim.Result, err error) {
		line := api.StreamLine{Index: i, Spec: api.SpecOf(specs[i])}
		if err != nil {
			line.Error = err.Error()
		} else {
			line.Result = &res
			count++
		}
		if enc.Encode(line) != nil {
			// Client gone surfaces via ctx below; still count the lost body.
			s.noteEncodeFailure("sweep")
		}
		if fl != nil {
			fl.Flush()
		}
	})
	if r.Context().Err() != nil {
		// Client gone mid-stream: queued specs were shed, in-flight
		// simulations finish detached into the memo; nothing to write.
		return
	}
	trailer := api.StreamTrailer{Done: true, Count: count}
	if err != nil {
		trailer.Error = err.Error()
	}
	if enc.Encode(trailer) != nil {
		s.noteEncodeFailure("sweep")
	}
	if fl != nil {
		fl.Flush()
	}
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	s.figureReqs.Add(1)
	name := r.PathValue("name")
	fr, err := await(r.Context(), func() (experiments.FigureResult, error) {
		return s.runner.ByName(name)
	})
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			return
		case errors.Is(err, experiments.ErrUnknownFigure):
			s.writeError(w, "figures", api.CodeNotFound, err)
		default:
			s.writeError(w, "figures", api.CodeInternal, err)
		}
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, fr.Render())
		return
	}
	s.writeJSON(w, "figures", http.StatusOK, api.FigureResponse{Name: name, ID: fr.ID, Title: fr.Title, Rendered: fr.Render()})
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	s.listReqs.Add(1)
	ds := core.Descriptors()
	out := make([]api.SchemeInfo, 0, len(ds))
	for _, d := range ds {
		out = append(out, api.SchemeInfo{Name: d.Name, Doc: d.Doc, Aliases: d.Aliases})
	}
	s.writeJSON(w, "listings", http.StatusOK, api.SchemesResponse{Schemes: out})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	s.listReqs.Add(1)
	s.writeJSON(w, "listings", http.StatusOK, api.BenchmarksResponse{Benchmarks: workload.BenchmarkNames})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.healthReqs.Add(1)
	s.writeJSON(w, "healthz", http.StatusOK, api.HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// handleClusterStats serves this node's raw cluster counters — the block a
// peer's fleet rollup sums. 404 on single-node deployments.
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	s.clusterReqs.Add(1)
	cs := s.cluster.Load()
	if cs == nil {
		s.writeAPIError(w, "cluster", api.Errorf(api.CodeNotFound, "cluster mode is off (no -peers)"))
		return
	}
	s.writeJSON(w, "cluster", http.StatusOK, cs.fabric.LocalStats(s.runner.Simulations()))
}

// MetricsSnapshot assembles the current metrics (also used by tests). The
// cluster block, when present, covers this node's ring view; the fleet
// rollup is filled in by handleMetrics (it polls peers).
func (s *Server) MetricsSnapshot() api.Metrics {
	rm := s.runner.MemoStats()
	var storeStats *store.Stats
	if s.runner.Store != nil {
		st := s.runner.Store.Stats()
		storeStats = &st
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := api.Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests: map[string]int64{
			"run":      s.runReqs.Load(),
			"sweep":    s.sweepReqs.Load(),
			"figures":  s.figureReqs.Load(),
			"listings": s.listReqs.Load(),
			"healthz":  s.healthReqs.Load(),
			"metrics":  s.metricReqs.Load(),
			"cluster":  s.clusterReqs.Load(),
		},
		EncodeFailures: s.encodeFailures(),
		Simulations:    s.runner.Simulations(),
		InFlightSims:   rm.InFlight,
		ResultMemo:     rm,
		TraceMemo:      s.runner.TraceStats(),
		ResultStore:    storeStats,
		Checkpoints:    experiments.CheckpointCacheStats(),
		Dispatch: api.DispatchMetrics{
			Admission: s.admission.Stats(),
			Queue:     s.runner.DispatchStats(),
		},
		Runtime: api.RuntimeMetrics{
			Goroutines:     runtime.NumGoroutine(),
			HeapAllocBytes: ms.HeapAlloc,
			GCPauseTotalNs: ms.PauseTotalNs,
			NumGC:          ms.NumGC,
		},
	}
	if cs := s.cluster.Load(); cs != nil {
		m.Cluster = &api.ClusterMetrics{
			Self:     cs.fabric.Self(),
			HopLimit: cs.fabric.HopLimit(),
			Local:    cs.fabric.LocalStats(m.Simulations),
			Peers:    cs.fabric.PeerMetrics(),
		}
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metricReqs.Add(1)
	m := s.MetricsSnapshot()
	if cs := s.cluster.Load(); cs != nil && m.Cluster != nil {
		m.Cluster.Fleet = cs.fabric.Rollup(r.Context(), m.Cluster.Local)
	}
	s.writeJSON(w, "metrics", http.StatusOK, m)
}
