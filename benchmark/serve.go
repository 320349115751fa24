package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"secureproc/internal/api"
	"secureproc/internal/workload"
)

const (
	serveRate      = 10.0            // interactive /v1/run requests per second
	serveSlice     = 4 * time.Second // traffic per slice between other samples
	serveBoots     = 9               // serve-mixed boots timed for setup_s; the last one serves
	serveHotKeys   = 16
	serveIdleHits  = 40 // sequential memo hits on the idle server (traced runs)
	serveHotLat    = 50
	serveHotSNCKB  = 64
	serveTimeout   = 60 * time.Second
	serveBootLimit = 20 * time.Second

	// A slice falls behind if its due-but-unsent backlog averages more
	// than serveBacklogRise requests higher over its last third than over
	// its first, or if its interactive requests are still being answered
	// serveDrainLimit after its window closed. Each slice starts with an
	// empty queue, so growth is judged within slices. The run fails if
	// more than half of its slices fell behind: a server that cannot keep
	// up falls behind in every slice, while a stall of the shared host
	// can push one slice over on its own.
	serveBacklogRise = 1.0
	serveDrainLimit  = 2 * time.Second
)

var serveSchemes = []string{"baseline", "xom", "snc-lru", "otp-mac"}
var serveSNCKB = []int{32, 64, 128}

type serveResult struct {
	setupS    []float64
	rssMB     float64
	hitMs     []float64 // interactive memo hits, from due time
	missMs    []float64 // interactive first-time configs, from due time
	allMs     []float64
	ttfrMs    []float64 // bulk sweeps: send to first streamed result
	specsPerS float64
	lateMs    []float64 // generator wake-up lateness per interactive request
	idleHitMs []float64 // traced runs: memo hits on the idle server
	metrics   api.Metrics
}

// runKey is one simulation configuration the traffic asks for.
type runKey struct {
	bench, scheme string
	snc           int
	lat           uint64
}

func (k runKey) request() api.RunRequest {
	snc, ways, l2, l2w, lat := k.snc, 0, 256, 4, k.lat
	return api.RunRequest{Bench: k.bench, Scheme: k.scheme, SNCKB: &snc, SNCWay: &ways, L2KB: &l2, L2Way: &l2w, Crypto: &lat}
}

// echo is the spec a correct server echoes for k.
func (k runKey) echo() api.Spec {
	return api.Spec{Bench: k.bench, Scheme: k.scheme, SNCKB: k.snc, L2KB: 256, L2Way: 4, Crypto: k.lat}
}

// arrival is one scheduled interactive request.
type arrival struct {
	id  uint32
	at  time.Duration // offset from the start of traffic
	key runKey
	hot bool
}

// trafficPlan is everything the seed decides: the hot set, the Poisson
// arrival schedule with its keys, and the bulk sweeps' configurations.
// Interactive first-time configs use odd crypto latencies and bulk sweeps
// even ones, so no bulk spec can answer an interactive miss from the memo.
// Simulation cost depends on the benchmark and the scheme, so first-time
// configs cycle through every (bench, scheme) pair and bulk sweeps through
// every scheme, each round in seeded order: seeds then vary the inputs
// without varying the mix of work.
type trafficPlan struct {
	hot      []runKey
	arrivals []arrival
	bulk     []runKey // bench left empty: each sweeps "all"
}

// maxBulkSweeps bounds the bulk configurations planned; a sweep takes a
// quarter second or more, so this outlasts any run.
const maxBulkSweeps = 1000

func planTraffic(seed int64, dur time.Duration) trafficPlan {
	rng := rand.New(rand.NewSource(seed))
	shuffle := func(ks []runKey) []runKey {
		out := append([]runKey(nil), ks...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	var pairs, schemes []runKey
	for _, b := range workload.BenchmarkNames {
		for _, s := range serveSchemes {
			pairs = append(pairs, runKey{bench: b, scheme: s})
		}
	}
	for _, s := range serveSchemes {
		schemes = append(schemes, runKey{scheme: s})
	}
	var p trafficPlan
	for _, k := range shuffle(pairs)[:serveHotKeys] {
		k.snc, k.lat = serveHotSNCKB, serveHotLat
		p.hot = append(p.hot, k)
	}

	// fresh gives k a (snc_kb, crypto_lat) of the given parity not used
	// with k's bench and scheme before.
	used := make(map[runKey]bool)
	fresh := func(k runKey, parity uint64) runKey {
		for {
			k.snc = serveSNCKB[rng.Intn(len(serveSNCKB))]
			k.lat = 20 + 2*uint64(rng.Intn(190)) + parity
			if k.lat != serveHotLat && !used[k] {
				used[k] = true
				return k
			}
		}
	}
	var round []runKey
	for len(p.bulk) < maxBulkSweeps {
		if len(round) == 0 {
			round = shuffle(schemes)
		}
		p.bulk = append(p.bulk, fresh(round[0], 0))
		round = round[1:]
	}

	round = nil
	var at time.Duration
	for id := uint32(0); ; id++ {
		at += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		if at > dur {
			break
		}
		a := arrival{id: id, at: at, hot: rng.Intn(2) == 0}
		if a.hot {
			a.key = p.hot[rng.Intn(len(p.hot))]
		} else {
			if len(round) == 0 {
				round = shuffle(pairs)
			}
			a.key, round = fresh(round[0], 1), round[1:]
		}
		p.arrivals = append(p.arrivals, a)
	}
	return p
}

// secsimd is one booted server process.
type secsimd struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// boot starts secsimd with default flags and a fresh result store and
// returns once /healthz answers, with the time that took.
func boot(ctx context.Context, o *options, n int) (*secsimd, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		dir, err := os.MkdirTemp(o.work, fmt.Sprintf("secsimd-%d-", n))
		if err != nil {
			return nil, 0, err
		}
		store := filepath.Join(dir, "store")
		log, err := os.Create(filepath.Join(dir, "log"))
		if err != nil {
			return nil, 0, err
		}
		cmd := exec.Command(filepath.Join(o.bin, "secsimd"), "-addr", "127.0.0.1:"+strconv.Itoa(port), "-store", store)
		cmd.Stdout, cmd.Stderr = log, log
		s := &secsimd{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), done: make(chan error, 1)}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			log.Close()
			return nil, 0, err
		}
		go func() { s.done <- cmd.Wait(); log.Close() }()
		if lastErr = s.awaitHealthy(ctx); lastErr == nil {
			return s, time.Since(start), nil
		}
		s.stop()
	}
	return nil, 0, fmt.Errorf("secsimd did not come up: %w", lastErr)
}

func (s *secsimd) awaitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(serveBootLimit)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("secsimd exited: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("no healthy answer within %s", serveBootLimit)
}

// stop shuts the server down gracefully (SIGTERM drains in-flight
// requests), kills it if that hangs, and reports its peak RSS.
func (s *secsimd) stop() float64 {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(serveTimeout):
		s.cmd.Process.Kill()
		<-s.done
	}
	return maxRSSMB(s.cmd.ProcessState)
}

// post sends one JSON request as the given fairness owner.
func post(ctx context.Context, c *http.Client, url, owner string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderClientID, owner)
	return c.Do(req)
}

// runReply is a /v1/run answer with the result kept as raw bytes, so a
// repeated key can be compared byte for byte with its first answer.
type runReply struct {
	Spec   api.Spec        `json:"spec"`
	Result json.RawMessage `json:"result"`
}

func runOnce(ctx context.Context, c *http.Client, base, owner string, k runKey) (runReply, error) {
	var rep runReply
	body, err := json.Marshal(k.request())
	if err != nil {
		return rep, err
	}
	resp, err := post(ctx, c, base+"/v1/run", owner, body)
	if err != nil {
		return rep, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return rep, json.Unmarshal(data, &rep)
}

// serveSession is one booted secsimd with its primed hot set. Traffic runs
// in slices between the other surfaces' samples; the server, its memo and
// the traffic plan carry over from slice to slice.
type serveSession struct {
	o           *options
	tr          *Tracer
	t           *tally
	root        int32
	srv         *secsimd
	stopped     bool
	plan        trafficPlan
	primed      map[runKey][]byte
	interactive *http.Client
	bulk        *http.Client

	offset   time.Duration // planned traffic time already sent
	bulkNext int           // next planned bulk configuration
	bulkTime time.Duration // time the bulk client spent streaming
	specs    int           // bulk results received
	slices   int
	behind   int           // slices that fell behind
	maxRise  float64       // largest backlog rise of any slice
	maxDrain time.Duration // longest drain past any slice's window
	res      serveResult
}

// startServe boots secsimd (serveBoots times for serve-mixed, whose
// setup_s is their median, once otherwise), keeps the last boot, primes
// the hot set so every hot request is a memo hit, and in traced runs times
// memo hits on the idle server. dur is the traffic time to plan.
func startServe(ctx context.Context, o *options, dur time.Duration, tr *Tracer, t *tally) (*serveSession, error) {
	s := &serveSession{o: o, tr: tr, t: t, plan: planTraffic(o.seed, dur)}
	s.root = tr.Begin("serve", noSpan, 0)
	boots := 1
	if o.workload == wServe {
		boots = serveBoots
	}
	for i := 0; i < boots; i++ {
		sp := tr.Begin("serve.boot", s.root, uint32(i))
		srv, d, err := boot(ctx, o, i)
		tr.End(sp)
		if err != nil {
			s.close()
			return nil, err
		}
		s.res.setupS = append(s.res.setupS, d.Seconds())
		if i < boots-1 {
			srv.stop()
		} else {
			s.srv = srv
		}
	}
	s.interactive = &http.Client{Timeout: serveTimeout, Transport: &http.Transport{
		MaxConnsPerHost: o.jobs, MaxIdleConnsPerHost: o.jobs, DisableCompression: true,
	}}
	s.bulk = &http.Client{Timeout: serveTimeout, Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}

	s.primed = make(map[runKey][]byte, len(s.plan.hot))
	sp := tr.Begin("serve.prime", s.root, 0)
	for _, k := range s.plan.hot {
		rep, err := runOnce(ctx, s.interactive, s.srv.base, "interactive", k)
		if err != nil {
			tr.End(sp)
			s.close()
			return nil, fmt.Errorf("priming %v: %w", k, err)
		}
		t.check(rep.Spec == k.echo(), "prime %v: echoed spec %+v", k, rep.Spec)
		s.primed[k] = rep.Result
	}
	tr.End(sp)

	if tr != nil {
		sp := tr.Begin("serve.idle_hits", s.root, 0)
		for i := 0; i < serveIdleHits; i++ {
			k := s.plan.hot[i%len(s.plan.hot)]
			t0 := time.Now()
			rep, err := runOnce(ctx, s.interactive, s.srv.base, "interactive", k)
			s.res.idleHitMs = append(s.res.idleHitMs, ms(time.Since(t0)))
			t.check(err == nil && rep.Spec == k.echo() && bytes.Equal(rep.Result, s.primed[k]),
				"idle hit %v: %v", k, err)
		}
		tr.End(sp)
	}
	return s, nil
}

// close stops the server if finish has not, and ends the session's span.
func (s *serveSession) close() {
	if s.srv != nil && !s.stopped {
		s.srv.stop()
		s.stopped = true
	}
	if s.interactive != nil {
		s.interactive.CloseIdleConnections()
		s.bulk.CloseIdleConnections()
	}
	s.tr.End(s.root)
}

// slice sends the next stretch of planned traffic — at most serveSlice and
// at most left — and returns the traffic time it covered. The interactive stream is
// open loop: the generator wakes at each due time and queues the request,
// and o.jobs workers (one connection each) send them. Latency runs from
// the due time, so time spent queued behind a stall counts. Beside it the
// bulk client streams 11-bench sweeps back to back, each on a fresh
// configuration, until the slice's window closes. The slice then checks
// that the interactive stream kept up (see serveBacklogRise).
func (s *serveSession) slice(ctx context.Context, left time.Duration) (time.Duration, error) {
	win := min(serveSlice, left)
	lo, hi := s.offset, s.offset+win
	s.offset = hi
	var arrivals []arrival
	for _, a := range s.plan.arrivals {
		if a.at >= lo && a.at < hi {
			arrivals = append(arrivals, a)
		}
	}

	traffic := s.tr.Begin("serve.traffic", s.root, 0)
	defer s.tr.End(traffic)
	start := time.Now()
	var mu sync.Mutex
	var bulk, workers sync.WaitGroup

	bulk.Add(1)
	go func() {
		defer bulk.Done()
		for s.bulkNext < len(s.plan.bulk) && time.Since(start) < win && ctx.Err() == nil {
			i := s.bulkNext
			s.bulkNext++
			n, ttfr := sweepOnce(ctx, s.bulk, s.srv.base, s.plan.bulk[i], s.tr, traffic, uint32(i), s.t)
			mu.Lock()
			s.specs += n
			if ttfr > 0 {
				s.res.ttfrMs = append(s.res.ttfrMs, ms(ttfr))
			}
			mu.Unlock()
		}
		mu.Lock()
		s.bulkTime += time.Since(start)
		mu.Unlock()
	}()

	queue := make(chan arrival, len(arrivals)) // one slot per send: the generator never blocks
	for w := 0; w < s.o.jobs; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for a := range queue {
				due := start.Add(a.at - lo)
				sp := s.tr.BeginAt("serve.run", traffic, a.id, due)
				s.tr.Record("gen.queue", sp, a.id, due, time.Since(due))
				rp := s.tr.Begin("http.run", sp, a.id)
				rep, err := runOnce(ctx, s.interactive, s.srv.base, "interactive", a.key)
				s.tr.End(rp)
				lat := ms(time.Since(due))
				s.tr.End(sp)
				ok := err == nil && rep.Spec == a.key.echo()
				if a.hot {
					ok = ok && bytes.Equal(rep.Result, s.primed[a.key])
				}
				s.t.check(ok, "run %v (hot %v): %v", a.key, a.hot, err)
				mu.Lock()
				s.res.allMs = append(s.res.allMs, lat)
				if a.hot {
					s.res.hitMs = append(s.res.hitMs, lat)
				} else {
					s.res.missMs = append(s.res.missMs, lat)
				}
				mu.Unlock()
			}
		}()
	}
	var backlog []int // due-but-unsent requests, sampled at each arrival
	for _, a := range arrivals {
		due := start.Add(a.at - lo)
		time.Sleep(time.Until(due))
		if ctx.Err() != nil {
			break
		}
		s.res.lateMs = append(s.res.lateMs, ms(time.Since(due)))
		backlog = append(backlog, len(queue))
		queue <- a
	}
	if d := time.Until(start.Add(win)); d > 0 {
		time.Sleep(d) // the window outlasts the last arrival
	}
	close(queue)
	workers.Wait()
	drain := time.Since(start.Add(win))
	bulk.Wait()
	if ctx.Err() != nil {
		return win, ctx.Err()
	}

	s.slices++
	rise := backlogRise(backlog)
	s.maxRise, s.maxDrain = max(s.maxRise, rise), max(s.maxDrain, drain)
	if rise > serveBacklogRise || drain > serveDrainLimit {
		s.behind++
		fmt.Fprintf(os.Stderr, "bench: serve slice %d fell behind: backlog rose by %.1f requests from its first third to its last, and its last request finished %s after the window\n",
			s.slices, rise, drain.Round(time.Millisecond))
	}
	return win, nil
}

// finish snapshots /metrics, stops the server and returns the results.
func (s *serveSession) finish(ctx context.Context) (serveResult, error) {
	if s.bulkTime > 0 {
		s.res.specsPerS = float64(s.specs) / s.bulkTime.Seconds()
	}
	fmt.Fprintf(os.Stderr, "bench: serve traffic: %d slices, %d fell behind, largest backlog rise %.2f, longest drain %s\n",
		s.slices, s.behind, s.maxRise, s.maxDrain.Round(time.Millisecond))
	if 2*s.behind > s.slices {
		s.t.fail("serve-mixed: the interactive stream fell behind in %d of %d slices", s.behind, s.slices)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.srv.base+"/metrics", nil)
	if err != nil {
		return s.res, err
	}
	resp, err := s.interactive.Do(req)
	if err != nil {
		return s.res, err
	}
	err = json.NewDecoder(resp.Body).Decode(&s.res.metrics)
	resp.Body.Close()
	if err != nil {
		return s.res, fmt.Errorf("/metrics: %w", err)
	}
	s.stopped = true
	s.res.rssMB = s.srv.stop()
	return s.res, nil
}

// backlogRise is the mean backlog over the last third of a slice's
// samples minus the mean over its first third.
func backlogRise(backlog []int) float64 {
	n := len(backlog) / 3
	if n == 0 {
		return 0
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(backlog[len(backlog)-n:]) - mean(backlog[:n])
}

// streamLine is either a streamed sweep result or the closing trailer.
type streamLine struct {
	Index  *int            `json:"index"`
	Spec   api.Spec        `json:"spec"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
	Done   bool            `json:"done"`
	Count  int             `json:"count"`
}

// sweepOnce streams one "all" sweep and checks every line and the
// trailer. It returns the results received and the time to the first.
func sweepOnce(ctx context.Context, c *http.Client, base string, k runKey, tr *Tracer, parent int32, id uint32, t *tally) (int, time.Duration) {
	rr := k.request()
	rr.Bench = "all"
	stream := true
	body, err := json.Marshal(api.SweepRequest{Specs: []api.RunRequest{rr}, Stream: &stream})
	if err != nil {
		t.check(false, "sweep %v: %v", k, err)
		return 0, 0
	}
	sp := tr.Begin("serve.sweep", parent, id)
	defer tr.End(sp)
	t0 := time.Now()
	resp, err := post(ctx, c, base+"/v1/sweep", "bulk", body)
	if err != nil {
		t.check(false, "sweep %v: %v", k, err)
		return 0, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.check(false, "sweep %v: status %d", k, resp.StatusCode)
		return 0, 0
	}
	var ttfr time.Duration
	seen := make([]bool, len(workload.BenchmarkNames))
	n := 0 // distinct, correct results
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 16<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.check(false, "sweep %v: bad line: %v", k, err)
			continue
		}
		if l.Done {
			done = true
			t.check(l.Count == len(seen) && n == l.Count && l.Error == "",
				"sweep %v: trailer count %d after %d distinct results, error %q", k, l.Count, n, l.Error)
			break
		}
		if ttfr == 0 {
			ttfr = time.Since(t0)
			tr.Record("sweep.first_result", sp, id, t0, ttfr)
		}
		fresh := l.Index != nil && *l.Index >= 0 && *l.Index < len(seen) && !seen[*l.Index]
		want := k
		if fresh {
			want.bench = workload.BenchmarkNames[*l.Index]
		}
		if t.check(fresh && l.Error == "" && len(l.Result) > 0 && l.Spec == want.echo(),
			"sweep %v line %v: repeated or out-of-range index, or spec %+v error %q", k, l.Index, l.Spec, l.Error) {
			seen[*l.Index] = true
			n++
		}
	}
	if !done {
		t.check(false, "sweep %v: stream ended without a done trailer (%v)", k, sc.Err())
	}
	return n, ttfr
}
