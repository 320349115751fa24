package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"secureproc/internal/api"
	"secureproc/internal/experiments"
	"secureproc/internal/workload"
)

// newClusterPair boots two in-process nodes and wires them into one ring.
// The servers start first (their addresses are random ports), then each
// fabric is enabled with the real membership — the same order a test of a
// real fleet would use.
func newClusterPair(t *testing.T, cfg Config) (sa, sb *Server, tsa, tsb *httptest.Server) {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = testScale
	}
	var err error
	if sa, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if sb, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	tsa = httptest.NewServer(sa)
	t.Cleanup(tsa.Close)
	tsb = httptest.NewServer(sb)
	t.Cleanup(tsb.Close)
	addrA := strings.TrimPrefix(tsa.URL, "http://")
	addrB := strings.TrimPrefix(tsb.URL, "http://")
	if err := sa.EnableCluster(ClusterConfig{Self: addrA, Peers: []string{addrB}}); err != nil {
		t.Fatal(err)
	}
	if err := sb.EnableCluster(ClusterConfig{Self: addrB, Peers: []string{addrA}}); err != nil {
		t.Fatal(err)
	}
	return sa, sb, tsa, tsb
}

// specOwner resolves which node of a pair owns the given run request.
func specOwner(t *testing.T, s *Server, body string) (addr string, local bool) {
	t.Helper()
	var rr api.RunRequest
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	specs, err := rr.Specs(false)
	if err != nil {
		t.Fatal(err)
	}
	return s.cluster.Load().fabric.Owner(specs[0].CanonicalKey())
}

// TestClusterExactlyOnceSharding is the tentpole contract: N concurrent
// identical requests against either peer simulate exactly once fleet-wide.
// The owner's memo bookkeeping proves it deterministically — every request
// beyond the first was either coalesced into the one in-flight simulation
// or answered from the completed memo entry.
func TestClusterExactlyOnceSharding(t *testing.T) {
	sa, sb, tsa, tsb := newClusterPair(t, Config{})
	body := `{"bench":"mcf","scheme":"snc-lru"}`

	const n = 8
	urls := []string{tsa.URL, tsb.URL}
	cycles := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJSON(t, urls[i%2]+"/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			var rr api.RunResponse
			if err := json.Unmarshal(b, &rr); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			cycles[i] = rr.Result.Cycles
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if cycles[i] != cycles[0] {
			t.Errorf("request %d saw %d cycles, request 0 saw %d", i, cycles[i], cycles[0])
		}
	}

	simsA, simsB := sa.Runner().Simulations(), sb.Runner().Simulations()
	if simsA+simsB != 1 {
		t.Fatalf("fleet ran %d simulations (%d + %d) for %d identical requests, want exactly 1", simsA+simsB, simsA, simsB, n)
	}
	owner, other := sa, sb
	if simsB == 1 {
		owner, other = sb, sa
	}
	// Ring agreement: both nodes must name the node that simulated.
	ownerAddr := owner.cluster.Load().fabric.Self()
	if got, _ := specOwner(t, sa, body); got != ownerAddr {
		t.Errorf("node A routes the spec to %q but %q simulated it", got, ownerAddr)
	}
	if got, _ := specOwner(t, sb, body); got != ownerAddr {
		t.Errorf("node B routes the spec to %q but %q simulated it", got, ownerAddr)
	}
	// All n requests landed on the owner's memo: one miss, and every other
	// request either joined the in-flight simulation (coalesced) or hit the
	// completed entry.
	rm := owner.Runner().MemoStats()
	if rm.Misses != 1 {
		t.Errorf("owner memo misses = %d, want 1", rm.Misses)
	}
	if rm.Coalesced+rm.Hits != n-1 {
		t.Errorf("owner memo coalesced(%d) + hits(%d) = %d, want %d", rm.Coalesced, rm.Hits, rm.Coalesced+rm.Hits, n-1)
	}
	// The non-owner forwarded its half of the traffic and ran nothing.
	ns := other.cluster.Load().fabric.LocalStats(other.Runner().Simulations())
	if ns.Forwarded < 1 {
		t.Errorf("non-owner forwarded_total = %d, want >= 1", ns.Forwarded)
	}
	if ns.Simulations != 0 {
		t.Errorf("non-owner ran %d simulations, want 0", ns.Simulations)
	}
	os := owner.cluster.Load().fabric.LocalStats(owner.Runner().Simulations())
	if os.ServedForwarded < 1 {
		t.Errorf("owner served_forwarded_total = %d, want >= 1", os.ServedForwarded)
	}
}

// TestClusterSweepPartitionsAndRollsUp: one sweep against node A partitions
// its expanded specs across the ring — each node simulates exactly the
// specs it owns — and A's /metrics fleet rollup sums the whole fleet.
func TestClusterSweepPartitionsAndRollsUp(t *testing.T) {
	sa, sb, tsa, _ := newClusterPair(t, Config{Jobs: 4})

	resp, body := postJSON(t, tsa.URL+"/v1/sweep", `{"specs":[{"bench":"all","scheme":"snc-lru"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var sr api.SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	n := len(workload.BenchmarkNames)
	if sr.Count != n || len(sr.Results) != n {
		t.Fatalf("sweep count %d / results %d, want %d", sr.Count, len(sr.Results), n)
	}
	for i, rr := range sr.Results {
		if rr.Result.Cycles == 0 {
			t.Errorf("result %d empty (spec %+v)", i, rr.Spec)
		}
	}

	// Each node must have simulated exactly the specs its ring arc owns.
	f := sa.cluster.Load().fabric
	wantA := 0
	for _, b := range workload.BenchmarkNames {
		if _, local := f.Owner(mustSpec(t, b).CanonicalKey()); local {
			wantA++
		}
	}
	simsA, simsB := sa.Runner().Simulations(), sb.Runner().Simulations()
	if simsA+simsB != int64(n) {
		t.Errorf("fleet ran %d simulations for %d distinct specs", simsA+simsB, n)
	}
	if simsA != int64(wantA) {
		t.Errorf("node A ran %d simulations but owns %d of the specs", simsA, wantA)
	}

	// The fleet rollup on A's /metrics sums both nodes.
	var m api.Metrics
	getJSON(t, tsa.URL+"/metrics", &m)
	if m.Cluster == nil {
		t.Fatal("/metrics missing cluster block in cluster mode")
	}
	if m.Cluster.Fleet == nil {
		t.Fatal("/metrics cluster block missing fleet rollup")
	}
	if m.Cluster.Fleet.Nodes != 2 {
		t.Errorf("rollup nodes = %d, want 2", m.Cluster.Fleet.Nodes)
	}
	if m.Cluster.Fleet.Simulations != int64(n) {
		t.Errorf("rollup simulations_total = %d, want %d", m.Cluster.Fleet.Simulations, n)
	}
	if len(m.Cluster.Peers) != 1 || !m.Cluster.Peers[0].Healthy {
		t.Errorf("peer metrics = %+v, want one healthy peer", m.Cluster.Peers)
	}
}

// mustSpec resolves a default spec for bench under snc-lru.
func mustSpec(t *testing.T, bench string) experiments.Spec {
	t.Helper()
	rr := api.RunRequest{Bench: bench, Scheme: "snc-lru"}
	specs, err := rr.Specs(false)
	if err != nil {
		t.Fatal(err)
	}
	return specs[0]
}

// TestClusterPeerDownFallsBackLocally: killing a peer degrades requests it
// owns to local execution — 200s, never failures — with the degradation
// visible in fallback_total, and the fleet rollup listing the dead peer as
// unreachable instead of failing the scrape.
func TestClusterPeerDownFallsBackLocally(t *testing.T) {
	sa, sb, tsa, tsb := newClusterPair(t, Config{})

	// Find a spec the peer owns, as seen from node A. The ring depends on
	// the random test ports; if it hands every benchmark to A, then B owns
	// none of them and forwards them all, so the roles swap.
	forwarded := func(s *Server) string {
		for _, b := range workload.BenchmarkNames {
			cand := fmt.Sprintf(`{"bench":%q,"scheme":"snc-lru"}`, b)
			if _, local := specOwner(t, s, cand); !local {
				return cand
			}
		}
		return ""
	}
	body := forwarded(sa)
	if body == "" {
		sa, tsa, tsb = sb, tsb, tsa
		body = forwarded(sa)
	}
	if body == "" {
		t.Fatal("neither node forwards any benchmark to its peer")
	}

	tsb.Close() // peer down

	resp, b := postJSON(t, tsa.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request with dead owner: status %d, want 200 (degraded, never failing): %s", resp.StatusCode, b)
	}
	if sims := sa.Runner().Simulations(); sims != 1 {
		t.Errorf("node A ran %d simulations, want 1 (local fallback)", sims)
	}
	var ns api.NodeStats
	getJSON(t, tsa.URL+"/v1/cluster/stats", &ns)
	if ns.Fallback < 1 {
		t.Errorf("fallback_total = %d, want >= 1", ns.Fallback)
	}
	if ns.Retries < 1 {
		t.Errorf("retries_total = %d, want >= 1 (one retry before giving up on the peer)", ns.Retries)
	}

	// The peer shows unhealthy and the rollup degrades instead of failing.
	var m api.Metrics
	getJSON(t, tsa.URL+"/metrics", &m)
	if m.Cluster == nil || len(m.Cluster.Peers) != 1 {
		t.Fatalf("cluster metrics = %+v", m.Cluster)
	}
	if m.Cluster.Peers[0].Healthy {
		t.Error("dead peer still reported healthy")
	}
	if m.Cluster.Fleet == nil || m.Cluster.Fleet.Nodes != 1 || len(m.Cluster.Fleet.Unreachable) != 1 {
		t.Errorf("fleet rollup = %+v, want 1 reachable node and 1 unreachable", m.Cluster.Fleet)
	}
}

// TestClusterHopLimitStopsForwardLoop: two nodes with deliberately
// inconsistent rings (each believes the other owns the key) would bounce a
// request forever; the hop-limit header must stop the loop and serve the
// request locally.
func TestClusterHopLimitStopsForwardLoop(t *testing.T) {
	var err error
	sa, errA := New(Config{Scale: testScale})
	sb, errB := New(Config{Scale: testScale})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	tsa := httptest.NewServer(sa)
	t.Cleanup(tsa.Close)
	tsb := httptest.NewServer(sb)
	t.Cleanup(tsb.Close)
	addrA := strings.TrimPrefix(tsa.URL, "http://")
	addrB := strings.TrimPrefix(tsb.URL, "http://")
	// Inconsistent membership: each node's "self" is a phantom address that
	// owns part of the ring but serves nothing, so keys the phantom does
	// not own are always believed to belong to the other, real node.
	const hopLimit = 2
	if err = sa.EnableCluster(ClusterConfig{Self: "phantom-a:1", Peers: []string{addrB}, HopLimit: hopLimit}); err != nil {
		t.Fatal(err)
	}
	if err = sb.EnableCluster(ClusterConfig{Self: "phantom-b:1", Peers: []string{addrA}, HopLimit: hopLimit}); err != nil {
		t.Fatal(err)
	}

	// Find a spec that loops: A routes it to B and B routes it back to A.
	fa, fb := sa.cluster.Load().fabric, sb.cluster.Load().fabric
	var body string
	for _, b := range workload.BenchmarkNames {
		for _, scheme := range []string{"snc-lru", "baseline", "xom", "otp-mac"} {
			rr := api.RunRequest{Bench: b, Scheme: scheme}
			specs, err := rr.Specs(false)
			if err != nil {
				continue
			}
			key := specs[0].CanonicalKey()
			if oa, _ := fa.Owner(key); oa != addrB {
				continue
			}
			if ob, _ := fb.Owner(key); ob != addrA {
				continue
			}
			body = fmt.Sprintf(`{"bench":%q,"scheme":%q}`, b, scheme)
			break
		}
		if body != "" {
			break
		}
	}
	if body == "" {
		t.Skip("no benchmark/scheme pair hashes into a forward loop with these ports")
	}

	resp, b := postJSON(t, tsa.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("looping request: status %d, want 200 served under the hop limit: %s", resp.StatusCode, b)
	}
	stopsA := fa.LocalStats(0).HopLimitStops
	stopsB := fb.LocalStats(0).HopLimitStops
	if stopsA+stopsB != 1 {
		t.Errorf("hop_limit_stops_total across the pair = %d, want exactly 1", stopsA+stopsB)
	}
	if sims := sa.Runner().Simulations() + sb.Runner().Simulations(); sims != 1 {
		t.Errorf("loop test ran %d simulations, want 1", sims)
	}
}

// TestClusterStatsOffline: without -peers the cluster endpoints degrade
// cleanly — /v1/cluster/stats is a 404 envelope and /metrics has no
// cluster block.
func TestClusterStatsOffline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/cluster/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cluster stats without cluster mode: status %d, want 404", resp.StatusCode)
	}
	var env api.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != api.CodeNotFound {
		t.Errorf("error code %q, want %q", env.Err.Code, api.CodeNotFound)
	}
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/metrics", &raw)
	if _, ok := raw["cluster"]; ok {
		t.Error("/metrics carries a cluster block without cluster mode")
	}
}

// TestErrorEnvelopeShape pins the error contract on every path: stable
// machine-readable codes, the right statuses, and retry_after_s mirrored
// into the 429 body.
func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	decode := func(b []byte) api.Envelope {
		t.Helper()
		var env api.Envelope
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("error body %q is not an envelope: %v", b, err)
		}
		return env
	}

	resp, b := postJSON(t, ts.URL+"/v1/run", `{"bench":`)
	if env := decode(b); resp.StatusCode != http.StatusBadRequest || env.Err.Code != api.CodeBadRequest {
		t.Errorf("bad body: status %d code %q, want 400 %q", resp.StatusCode, env.Err.Code, api.CodeBadRequest)
	}

	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = readAll(resp)
	if env := decode(b); resp.StatusCode != http.StatusNotFound || env.Err.Code != api.CodeNotFound {
		t.Errorf("unknown path: status %d code %q, want 404 %q", resp.StatusCode, env.Err.Code, api.CodeNotFound)
	}

	resp, err = http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = readAll(resp)
	if env := decode(b); resp.StatusCode != http.StatusMethodNotAllowed || env.Err.Code != api.CodeMethodNotAllowed {
		t.Errorf("wrong method: status %d code %q, want 405 %q", resp.StatusCode, env.Err.Code, api.CodeMethodNotAllowed)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("405 Allow = %q, want POST", allow)
	}

	resp, err = http.Get(ts.URL + "/v1/figures/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = readAll(resp)
	if env := decode(b); env.Err.Code != api.CodeNotFound {
		t.Errorf("unknown figure code %q, want %q", env.Err.Code, api.CodeNotFound)
	}

	// Version pinning: a forwarded request from an incompatible fleet
	// member fails loudly.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(`{"bench":"gzip","scheme":"snc-lru"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderAPIVersion, "v999")
	vr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ = readAll(vr)
	if env := decode(b); vr.StatusCode != http.StatusBadRequest || env.Err.Code != api.CodeUnsupportedVersion {
		t.Errorf("version mismatch: status %d code %q, want 400 %q", vr.StatusCode, env.Err.Code, api.CodeUnsupportedVersion)
	}
}

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
