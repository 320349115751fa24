package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"time"

	"secureproc/internal/api"
	"secureproc/internal/cache"
	"secureproc/internal/core"
	"secureproc/internal/crypto/aes"
	"secureproc/internal/crypto/des"
	"secureproc/internal/crypto/engine"
	"secureproc/internal/integrity"
	"secureproc/internal/mem"
	"secureproc/internal/sim"
	"secureproc/internal/snc"
	"secureproc/internal/store"
	"secureproc/internal/workload"
)

// phaseSchemes are the schemes the phase probe runs for every benchmark.
var phaseSchemes = []string{"baseline", "xom", "snc-lru", "otp-mac"}

// probeMin is the least time one layer microprobe measures for.
const probeMin = 20 * time.Millisecond

// probeResult holds the traced run's direct layer measurements.
type probeResult struct {
	// Phase probe at scale 1.0: summed time, calls and work per phase.
	matS, warmS, measS, newS, cpS, restoreS float64
	matN, warmN, measN, newN, cpN, restoreN int
	matRecs, warmRefs, measRefs, measInstr  float64
	// layerNs is nanoseconds per call for each of timingLayers.
	layerNs map[string]float64

	desNs, aesNs, macUs      float64
	apiDecodeUs, apiEncodeUs float64
	storeSaveUs, storeLoadUs float64
}

// timingLayers are the timing-model entry points the microprobes replay
// derived access streams through, named as their per-layer metrics.
var timingLayers = []string{
	"cache.access", "snc.query", "snc.install", "core.otp_readline",
	"core.otp_writeback", "mem.wbuf_insert", "engine.issue",
}

// runProbes times the layers directly from the benchmark's own calls: the
// simulation phases for every benchmark × phaseSchemes at scale 1.0, the
// timing-model layers replaying access streams derived from those traces,
// and the crypto, api and store layers.
func runProbes(ctx context.Context, o *options, tr *Tracer, t *tally) (probeResult, error) {
	var pr probeResult
	root := tr.Begin("probes", noSpan, 0)
	defer tr.End(root)
	var layer layerTimes
	for bi, bench := range workload.BenchmarkNames {
		if err := ctx.Err(); err != nil {
			return pr, err
		}
		recs, err := phaseProbe(&pr, tr, root, bi, bench, t)
		if err != nil {
			return pr, err
		}
		layer.add(replayLayers(recs, tr, root))
	}
	pr.layerNs = make(map[string]float64, len(timingLayers))
	for _, name := range timingLayers {
		pr.layerNs[name] = layer.ns(name)
	}

	if err := cryptoProbe(&pr, tr, root); err != nil {
		return pr, err
	}
	if err := apiStoreProbe(o, &pr, tr, root); err != nil {
		return pr, err
	}
	return pr, nil
}

// phaseProbe materializes one benchmark and runs each scheme through the
// phases a cold request goes through, with a span around each call.
func phaseProbe(pr *probeResult, tr *Tracer, root int32, bi int, bench string, t *tally) ([]workload.Record, error) {
	prof, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	req := uint32(bi * 100)
	span := func(name string, f func() error) (time.Duration, error) {
		sp := tr.Begin(name, root, req)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		tr.End(sp)
		return d, err
	}
	var recs []workload.Record
	d, err := span("workload.materialize", func() (err error) {
		recs, err = workload.Materialize(prof, 1.0)
		return err
	})
	if err != nil {
		return nil, err
	}
	pr.matS += d.Seconds()
	pr.matN++
	pr.matRecs += float64(len(recs))
	warm := min(prof.WarmupRefs(), len(recs))

	for si, scheme := range phaseSchemes {
		req = uint32(bi*100 + si + 1)
		cfg := sim.DefaultConfig()
		if cfg.Scheme, err = sim.SchemeByName(scheme); err != nil {
			return nil, err
		}
		var sys *sim.System
		d, err := span("sim.new", func() (err error) { sys, err = sim.New(cfg); return err })
		if err != nil {
			return nil, err
		}
		pr.newS += d.Seconds()
		pr.newN++
		d, _ = span("sim.warmup", func() error { sys.RunWarmup(workload.Replay(recs[:warm])); return nil })
		pr.warmS += d.Seconds()
		pr.warmN++
		pr.warmRefs += float64(warm)

		var cp *sim.Checkpoint
		var cpOK bool
		d, _ = span("sim.checkpoint", func() error { cp, cpOK = sys.Checkpoint(); return nil })
		if cpOK {
			pr.cpS += d.Seconds()
			pr.cpN++
			fresh, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			d, err = span("sim.restore", func() error { return fresh.Restore(cp) })
			if err != nil {
				return nil, err
			}
			pr.restoreS += d.Seconds()
			pr.restoreN++
			sys = fresh
		}
		var res sim.Result
		d, _ = span("sim.measured", func() error { res = sys.RunMeasured(workload.Replay(recs[warm:])); return nil })
		pr.measS += d.Seconds()
		pr.measN++
		pr.measRefs += float64(len(recs) - warm)
		pr.measInstr += float64(res.Instructions)
		t.check(res.Instructions > 0 && res.Cycles > 0, "phase probe %s/%s: empty result", bench, scheme)
	}
	return recs, nil
}

// layerTimes accumulates time and calls per timing-model layer.
type layerTimes struct {
	d map[string]time.Duration
	n map[string]int

	tr     *Tracer
	parent int32
}

func (l *layerTimes) add(o layerTimes) {
	if l.d == nil {
		l.d, l.n = map[string]time.Duration{}, map[string]int{}
	}
	for k, v := range o.d {
		l.d[k] += v
		l.n[k] += o.n[k]
	}
}

func (l *layerTimes) ns(k string) float64 {
	if l.n[k] == 0 {
		return 0
	}
	return float64(l.d[k]) / float64(l.n[k])
}

// timed repeats one replay on fresh state until probeMin has been spent
// inside run, and records the total time and calls under k.
func (l *layerTimes) timed(k string, run func() (calls int, d time.Duration)) {
	var total time.Duration
	for total < probeMin {
		n, d := run()
		if n == 0 {
			return
		}
		total += d
		l.d[k] += d
		l.n[k] += n
		l.tr.Record(k, l.parent, 0, time.Now().Add(-d), d)
	}
}

type ref struct {
	addr  uint64
	write bool
}

// replayLayers derives the access streams a trace produces — data
// references, the L1 miss/writeback stream into L2, L2 read misses and L2
// dirty victims — with the benchmark's own L1D- and L2-geometry caches,
// then replays them through each timing-model layer's public entry point.
func replayLayers(recs []workload.Record, tr *Tracer, parent int32) layerTimes {
	cfg := sim.DefaultConfig()
	var data, l2refs []ref
	var misses, victims []uint64
	l1, l2 := cache.New(cfg.L1D), cache.New(cfg.L2)
	toL2 := func(r ref) {
		l2refs = append(l2refs, r)
		res := l2.Access(r.addr, r.addr, r.write)
		if !res.Hit && !r.write {
			misses = append(misses, l2.LineAddr(r.addr))
		}
		if res.WritebackNeeded {
			victims = append(victims, res.WritebackVA)
		}
	}
	for _, rec := range recs {
		if rec.Kind == workload.IFetch {
			continue
		}
		r := ref{rec.Addr, rec.Kind == workload.Store}
		data = append(data, r)
		res := l1.Access(r.addr, r.addr, r.write)
		if !res.Hit {
			toL2(ref{r.addr, false})
		}
		if res.WritebackNeeded {
			toL2(ref{res.WritebackAddr, true})
		}
	}

	lt := layerTimes{d: map[string]time.Duration{}, n: map[string]int{}, tr: tr, parent: parent}
	lt.timed("cache.access", func() (int, time.Duration) {
		a, b := cache.New(cfg.L1D), cache.New(cfg.L2)
		t0 := time.Now()
		for _, r := range data {
			a.Access(r.addr, r.addr, r.write)
		}
		for _, r := range l2refs {
			b.Access(r.addr, r.addr, r.write)
		}
		return len(data) + len(l2refs), time.Since(t0)
	})
	lt.timed("snc.install", func() (int, time.Duration) {
		s := snc.New(snc.DefaultConfig())
		t0 := time.Now()
		for i, va := range victims {
			s.Install(va, uint16(i))
		}
		return len(victims), time.Since(t0)
	})
	lt.timed("snc.query", func() (int, time.Duration) {
		s := snc.New(snc.DefaultConfig())
		for i, va := range victims {
			s.Install(va, uint16(i))
		}
		t0 := time.Now()
		for _, va := range misses {
			s.Query(va)
		}
		return len(misses), time.Since(t0)
	})
	newOTP := func() *core.OTP {
		return core.NewOTP(mem.NewBus(cfg.DRAM), mem.NewWriteBuffer(cfg.WriteBufferDepth), engine.New(cfg.Crypto), snc.New(cfg.SNC))
	}
	lt.timed("core.otp_readline", func() (int, time.Duration) {
		o := newOTP()
		var now uint64
		t0 := time.Now()
		for _, a := range misses {
			now += 200
			o.ReadLine(now, core.Access{PA: a, VA: a})
		}
		return len(misses), time.Since(t0)
	})
	lt.timed("core.otp_writeback", func() (int, time.Duration) {
		o := newOTP()
		var now uint64
		t0 := time.Now()
		for _, a := range victims {
			now += 200
			o.WritebackLine(now, core.Access{PA: a, VA: a})
		}
		return len(victims), time.Since(t0)
	})
	lt.timed("mem.wbuf_insert", func() (int, time.Duration) {
		bus := mem.NewBus(cfg.DRAM)
		w := mem.NewWriteBuffer(cfg.WriteBufferDepth)
		drain := func(at uint64) uint64 { return bus.Write(at, mem.SrcWriteback) }
		var now uint64
		t0 := time.Now()
		for range victims {
			now += 100
			w.Insert(now, now+cfg.Crypto.Latency, drain)
		}
		return len(victims), time.Since(t0)
	})
	lt.timed("engine.issue", func() (int, time.Duration) {
		e := engine.New(cfg.Crypto)
		var now uint64
		t0 := time.Now()
		for range misses {
			now += 10
			e.Issue(now)
		}
		return len(misses), time.Since(t0)
	})
	return lt
}

// cryptoProbe times the functional ciphers per block and the MAC per line.
func cryptoProbe(pr *probeResult, tr *Tracer, root int32) error {
	dc, err := des.NewCipher([]byte("8bytekey"))
	if err != nil {
		return err
	}
	ac, err := aes.NewCipher([]byte("sixteen byte key"))
	if err != nil {
		return err
	}
	v, err := integrity.NewVerifier([]byte("pmem benchmark mac key"), lineBytes)
	if err != nil {
		return err
	}
	perCall := func(name string, n int, f func()) float64 {
		var total time.Duration
		calls := 0
		start := time.Now()
		for total < probeMin {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			total += time.Since(t0)
			calls += n
		}
		tr.Record(name, root, 0, start, total)
		return float64(total) / float64(calls)
	}
	buf := make([]byte, 16)
	ct := bytes.Repeat([]byte{0x5a}, lineBytes)
	pr.desNs = perCall("crypto.des_block", 10000, func() { dc.Encrypt(buf[:8], buf[:8]) })
	pr.aesNs = perCall("crypto.aes_block", 10000, func() { ac.Encrypt(buf, buf) })
	var seq uint16
	pr.macUs = perCall("integrity.mac", 1000, func() {
		seq++
		if _, err := v.MAC(pmemBase, seq, ct); err != nil {
			panic(err)
		}
	}) / 1e3
	return nil
}

// apiStoreProbe times the server's wire layer on a real memo-hit exchange
// (request decode + resolution, response encode) and the result store's
// save and load of the same result.
func apiStoreProbe(o *options, pr *probeResult, tr *Tracer, root int32) error {
	k := runKey{bench: "mcf", scheme: "snc-lru", snc: 64, lat: 50}
	reqBody, err := json.Marshal(k.request())
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig()
	if cfg.Scheme, err = sim.SchemeByName(k.scheme); err != nil {
		return err
	}
	prof, _ := workload.ByName(k.bench)
	res, err := sim.RunProfile(cfg, prof, figScale)
	if err != nil {
		return err
	}
	specs, err := api.RunRequest{Bench: k.bench, Scheme: k.scheme}.Specs(false)
	if err != nil {
		return err
	}
	resp := api.RunResponse{Spec: api.SpecOf(specs[0]), Result: res}

	const n = 2000
	start := time.Now()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var rr api.RunRequest
		dec := json.NewDecoder(bytes.NewReader(reqBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rr); err != nil {
			return err
		}
		if _, err := rr.Specs(false); err != nil {
			return err
		}
	}
	d := time.Since(t0)
	tr.Record("api.decode", root, 0, start, d)
	pr.apiDecodeUs = float64(d) / n / 1e3

	start = time.Now()
	for i := 0; i < n; i++ {
		if err := api.WriteJSON(httptest.NewRecorder(), 200, resp); err != nil {
			return err
		}
	}
	d = time.Since(start)
	tr.Record("api.encode", root, 0, start, d)
	pr.apiEncodeUs = float64(d) / n / 1e3

	st, err := store.Open(filepath.Join(o.work, "probe-store"), sim.TimingModelVersion)
	if err != nil {
		return err
	}
	const m = 200
	start = time.Now()
	for i := 0; i < m; i++ {
		st.Save(fmt.Sprintf("probe-%d", i), res)
	}
	d = time.Since(start)
	tr.Record("store.save", root, 0, start, d)
	pr.storeSaveUs = float64(d) / m / 1e3
	start = time.Now()
	for i := 0; i < m; i++ {
		var got sim.Result
		if !st.Load(fmt.Sprintf("probe-%d", i), &got) {
			return fmt.Errorf("store probe: entry %d did not load", i)
		}
	}
	d = time.Since(start)
	tr.Record("store.load", root, 0, start, d)
	pr.storeLoadUs = float64(d) / m / 1e3
	return nil
}
