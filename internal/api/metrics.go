package api

import (
	"secureproc/internal/dispatch"
	"secureproc/internal/experiments"
	"secureproc/internal/store"
)

// Metrics is the /metrics payload.
type Metrics struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Requests      map[string]int64 `json:"requests_total"`
	// EncodeFailures counts response bodies that failed to encode after
	// the status line was committed (in practice: the client hung up
	// mid-body), keyed like Requests; endpoints with no failures are
	// absent.
	EncodeFailures map[string]int64 `json:"encode_failures_total"`
	// Simulations counts simulations actually executed (memo misses that
	// ran to completion started; hits and coalesced waiters don't add).
	Simulations int64 `json:"simulations_total"`
	// InFlightSims is the number of simulations executing right now.
	InFlightSims int `json:"in_flight_sims"`
	// ResultMemo and TraceMemo expose the singleflight caches' lifecycle
	// counters (size, capacity, hits, misses, coalesced, evictions).
	ResultMemo experiments.CacheStats `json:"result_memo"`
	TraceMemo  experiments.CacheStats `json:"trace_memo"`
	// ResultStore exposes the persistent warm-start store's counters
	// (hits, misses, corrupt entries, writes); absent when no -store
	// directory is configured.
	ResultStore *store.Stats `json:"result_store,omitempty"`
	// Checkpoints exposes the process-wide post-warmup checkpoint cache.
	Checkpoints experiments.CheckpointStats `json:"checkpoints"`
	// Dispatch exposes the execution dispatch layer: the admission gate
	// (rejections become 429s) and the weighted-fair queue over the shared
	// worker budget.
	Dispatch DispatchMetrics `json:"dispatch"`
	// Runtime exposes Go runtime gauges so saturation (goroutine pileup,
	// heap growth, GC pressure) is diagnosable from /metrics alone.
	Runtime RuntimeMetrics `json:"runtime"`
	// Cluster exposes the sweep fabric — ring membership, per-peer
	// forwarding counters and the fleet rollup; absent on single-node
	// deployments (no -peers).
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
}

// DispatchMetrics groups the dispatch layer's counters. secsim batch mode
// prints the same struct on stderr, so CLI and service diagnostics read
// identically.
type DispatchMetrics struct {
	Admission dispatch.AdmissionStats `json:"admission"`
	Queue     dispatch.QueueStats     `json:"queue"`
}

// RuntimeMetrics is a point-in-time snapshot of Go runtime gauges.
type RuntimeMetrics struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	NumGC          uint32 `json:"num_gc"`
}

// NodeStats is one node's cluster-local counter block: what this node
// forwarded, served, and degraded. It is both the "self" entry of
// ClusterMetrics and the GET /v1/cluster/stats payload the rollup sums.
type NodeStats struct {
	// Self is the node's advertised ring address.
	Self string `json:"self"`
	// Simulations mirrors simulations_total, so a fleet rollup can prove
	// exactly-once execution across nodes.
	Simulations int64 `json:"simulations_total"`
	// Forwarded counts requests this node routed to an owning peer.
	Forwarded int64 `json:"forwarded_total"`
	// ServedForwarded counts requests this node executed that arrived via
	// a peer's forward (hop count > 0).
	ServedForwarded int64 `json:"served_forwarded_total"`
	// Fallback counts requests executed locally because the owning peer
	// was down or unreachable — degraded, never failed.
	Fallback int64 `json:"fallback_total"`
	// Retries counts forward attempts retried after a transient failure.
	Retries int64 `json:"retries_total"`
	// HopLimitStops counts requests served locally because the hop budget
	// was exhausted (a misconfigured ring would otherwise loop them).
	HopLimitStops int64 `json:"hop_limit_stops_total"`
	// Batches and BatchedSpecs count the cross-request batching window:
	// BatchedSpecs specs were coalesced into Batches dispatcher entries.
	Batches      int64 `json:"batches_total"`
	BatchedSpecs int64 `json:"batched_specs_total"`
}

// PeerMetrics is one remote peer as seen from this node.
type PeerMetrics struct {
	Addr string `json:"addr"`
	// Healthy is false while the peer is in its failure cooldown (recent
	// forwards failed; traffic falls back locally until it expires).
	Healthy bool `json:"healthy"`
	// Forwarded/Fallback/Retries count this node's traffic toward the peer.
	Forwarded int64 `json:"forwarded_total"`
	Fallback  int64 `json:"fallback_total"`
	Retries   int64 `json:"retries_total"`
}

// FleetRollup sums NodeStats across every reachable ring member — the
// cluster-wide view served from any node's /metrics.
type FleetRollup struct {
	// Nodes is the number of members that answered the rollup poll.
	Nodes int `json:"nodes"`
	// Unreachable lists members that did not answer (their counters are
	// missing from the sums).
	Unreachable []string `json:"unreachable,omitempty"`
	// Simulations is the fleet-wide simulations_total — with consistent
	// routing, N identical requests anywhere in the fleet sum to 1.
	Simulations     int64 `json:"simulations_total"`
	Forwarded       int64 `json:"forwarded_total"`
	ServedForwarded int64 `json:"served_forwarded_total"`
	Fallback        int64 `json:"fallback_total"`
}

// ClusterMetrics is the /metrics "cluster" block.
type ClusterMetrics struct {
	// Self and Peers describe the ring membership from this node's view.
	Self     string `json:"self"`
	HopLimit int    `json:"hop_limit"`
	// Local is this node's own counter block.
	Local NodeStats `json:"local"`
	// Peers lists every other ring member with health and traffic.
	Peers []PeerMetrics `json:"peers"`
	// Fleet is the cross-node rollup; absent when the poll was skipped.
	Fleet *FleetRollup `json:"fleet,omitempty"`
}
