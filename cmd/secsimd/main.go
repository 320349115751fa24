// Command secsimd serves the simulation engine over HTTP: a long-lived
// process in front of the experiment layer's singleflight memo, so
// concurrent clients asking for the same configuration share one
// simulation and repeated requests are answered from the LRU-bounded
// cache.
//
// Usage:
//
//	secsimd [-addr :8080] [-scale 1.0] [-jobs N]
//	        [-memo-capacity 0] [-trace-capacity 0] [-drain 30s]
//	        [-store DIR] [-maxadmit 0] [-stream]
//	        [-peers host:port,... -self host:port] [-hoplimit 3]
//	        [-batchwindow 0]
//
// With -maxadmit N > 0, at most N simulation requests (/v1/run, /v1/sweep,
// /v1/figures) are admitted concurrently; request N+1 is rejected
// immediately with 429 and a Retry-After estimate instead of queueing
// unboundedly. Admitted work is scheduled weighted-fair per client
// (X-Client-ID header, else remote host), so one bulk sweep cannot starve
// interactive /v1/run calls.
//
// With -stream, /v1/sweep answers as an NDJSON stream by default — one
// line per result the moment its simulation lands, then a trailer.
// Individual requests opt in or out with the "stream" field or an
// "Accept: application/x-ndjson" header regardless of the flag.
//
// With -store, completed simulation results are persisted under DIR (keyed
// by run configuration and the timing-model version) and survive restarts:
// a rebooted secsimd answers previously-computed requests from disk instead
// of re-simulating. Damaged or stale entries fall back to recompute.
//
// With -peers, the node joins a static fleet: every member lists the same
// membership, each request's canonical run key is hashed onto a consistent
// ring, and requests owned by another member forward there — so the
// fleet's result memos partition exactly-once across instances instead of
// duplicating. -self is this node's advertised host:port on the ring (it
// must appear in the other members' -peers lists). A request that has
// already been forwarded -hoplimit times is served locally (the loop guard
// for misconfigured rings), and an unreachable owner degrades the request
// to local execution after one retry — never to a failure. With
// -batchwindow > 0, locally-owned /v1/run requests arriving within one
// window execute together as a single deduplicated batch. Cluster
// counters, per-peer health and a fleet-wide rollup appear under
// "cluster" in /metrics.
//
// The wire contract (request/response/error payloads for every endpoint)
// is defined in internal/api; see that package's documentation for the
// authoritative reference. Endpoints:
//
//	POST /v1/run              one spec -> simulation result
//	POST /v1/sweep            spec list (bench may be "all" or a,b,c)
//	GET  /v1/figures/{name}   rendered figure table (?format=text)
//	GET  /v1/schemes          registered protection schemes
//	GET  /v1/benchmarks       benchmark names
//	GET  /v1/cluster/stats    this node's cluster counters (fleet mode)
//	GET  /healthz             liveness
//	GET  /metrics             memo size, hit/miss/coalesced/eviction
//	                          counts, in-flight simulations, cluster rollup
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -drain before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"secureproc/internal/server"
)

// Connection timeouts. ReadHeaderTimeout bounds how long a client may take
// to send its request headers, so a slow or stalled client cannot pin a
// connection forever; IdleTimeout closes keep-alive connections that sit
// unused between requests. Neither bounds a request body or a response:
// a long sweep or stream runs as long as it needs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.Float64("scale", 1.0, "workload scale for every simulation")
	jobs := flag.Int("jobs", 0, "concurrent simulations in sweep fan-out (0 = GOMAXPROCS)")
	capacity := flag.Int("memo-capacity", 0, "result-memo LRU capacity in entries (0 = unbounded)")
	traceCap := flag.Int("trace-capacity", 0, "materialized-trace memo LRU capacity (0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	storeDir := flag.String("store", "", "persist results in this directory across restarts (empty = off)")
	maxAdmit := flag.Int("maxadmit", 0, "concurrently admitted simulation requests before 429 + Retry-After (0 = unbounded)")
	stream := flag.Bool("stream", false, "stream /v1/sweep results as NDJSON by default")
	peers := flag.String("peers", "", "comma-separated fleet members (host:port,...); enables cluster sharding")
	self := flag.String("self", "", "this node's advertised host:port on the ring (required with -peers)")
	hopLimit := flag.Int("hoplimit", 0, "max forwards per request before serving locally (0 = default)")
	batchWindow := flag.Duration("batchwindow", 0, "hold locally-owned /v1/run requests this long and execute each window as one deduplicated batch (0 = off)")
	flag.Parse()

	cfg := server.Config{
		Scale:         *scale,
		Jobs:          *jobs,
		Capacity:      *capacity,
		TraceCapacity: *traceCap,
		StoreDir:      *storeDir,
		MaxAdmit:      *maxAdmit,
		Stream:        *stream,
	}
	if *peers != "" {
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		cfg.Cluster = &server.ClusterConfig{
			Self:        *self,
			Peers:       members,
			HopLimit:    *hopLimit,
			BatchWindow: *batchWindow,
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("secsimd: %v", err)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	storeNote := "off"
	if *storeDir != "" {
		storeNote = *storeDir
	}
	clusterNote := "off"
	if cfg.Cluster != nil {
		clusterNote = *self + " in {" + *peers + "}"
	}
	log.Printf("secsimd listening on %s (scale %.2f, jobs %d, memo capacity %d, trace capacity %d, store %s, maxadmit %d, stream %v, cluster %s)",
		*addr, *scale, *jobs, *capacity, *traceCap, storeNote, *maxAdmit, *stream, clusterNote)

	select {
	case err := <-errc:
		log.Fatalf("secsimd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("secsimd: shutting down, draining in-flight requests (up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("secsimd: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("secsimd: %v", err)
	}
	log.Print("secsimd: drained, bye")
}
