package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"secureproc"
	"secureproc/internal/integrity"
)

const (
	lineBytes  = 128     // the paper's L2 line
	pmemWSet   = 2 << 20 // working-set bytes
	pmemLines  = pmemWSet / lineBytes
	pmemBase   = 0x4000_0000
	pmemOps    = 24000 // line operations per cipher per sample
	pmemChunks = 12    // the stream runs in chunks, alternating ciphers
	pmemReadPc = 70    // percent of operations that are reads
	pmemTamper = 100   // one read in pmemTamper is preceded by a tamper
)

type pmemResult struct {
	desMBs, aesMBs []float64
	setupS, rssMB  []float64
	layers         []LayerStat
}

// pmemChildResult is a pmem child's result line.
type pmemChildResult struct {
	DESMBs   []float64   `json:"des_mb_s"` // one rate per chunk
	AESMBs   []float64   `json:"aes_mb_s"`
	Checked  int         `json:"checked"`
	Failures []string    `json:"failures"`
	Failed   int         `json:"failed"`
	Layers   []LayerStat `json:"layers"`
}

// pmemRun measures the functional protected memory, each sample in a
// fresh process.
type pmemRun struct {
	o    *options
	tr   *Tracer
	t    *tally
	root int32
	n    int
	res  pmemResult
}

func startPmem(o *options, tr *Tracer, t *tally) *pmemRun {
	return &pmemRun{o: o, tr: tr, t: t, root: tr.Begin("pmem", noSpan, 0)}
}

// sample runs one pmem child and returns how long it took.
func (p *pmemRun) sample(ctx context.Context, _ time.Duration) (time.Duration, error) {
	args := []string{"-seed", strconv.FormatInt(p.o.seed*1000+int64(p.n), 10), "-req", strconv.Itoa(p.n)}
	if p.tr != nil {
		args = append(args, "-spans", traceFile(p.o, "pmem"))
	}
	sp := p.tr.Begin("pmem.sample", p.root, uint32(p.n))
	t0 := time.Now()
	var res pmemChildResult
	oc, err := runChild(ctx, "pmem", args, &res)
	p.tr.End(sp)
	p.n++
	if err != nil {
		return 0, err
	}
	p.t.add(res.Checked, res.Failed, res.Failures)
	p.res.desMBs = append(p.res.desMBs, res.DESMBs...)
	p.res.aesMBs = append(p.res.aesMBs, res.AESMBs...)
	p.res.setupS = append(p.res.setupS, oc.setup.Seconds())
	p.res.rssMB = append(p.res.rssMB, oc.rssMB)
	p.res.layers = append(p.res.layers, res.Layers...)
	return time.Since(t0), nil
}

func (p *pmemRun) finish() pmemResult {
	p.tr.End(p.root)
	return p.res
}

type pmemOp struct {
	line    int
	write   bool
	data    []byte // write payload
	tamper  int    // 0 none, 1 spoof, 2 splice, 3 replay
	partner int    // splice partner line
	replay  []byte // fresh payload written before a replay tamper
}

// pmemChild fills a 2 MB working set in a DES and an AES protected memory
// (set-up), then runs the same seeded 70/30 read/write line stream through
// each: every write is paired with a MAC write, every read with a MAC
// verify and a comparison against a shadow plaintext, and 1% of reads are
// preceded by a spoof, splice or replay that must be rejected.
func pmemChild(args []string) error {
	fs := flag.NewFlagSet("pmem", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "stream seed")
	spans := fs.String("spans", "", "write spans to this file prefix (traced runs)")
	req := fs.Int("req", 0, "request ID for spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	line := func() []byte {
		b := make([]byte, lineBytes)
		rng.Read(b)
		return b
	}
	initial := make([][]byte, pmemLines)
	for i := range initial {
		initial[i] = line()
	}
	ops := make([]pmemOp, pmemOps)
	for i := range ops {
		op := pmemOp{line: rng.Intn(pmemLines), write: rng.Intn(100) >= pmemReadPc}
		if op.write {
			op.data = line()
		} else if rng.Intn(pmemTamper) == 0 {
			op.tamper = 1 + rng.Intn(3)
			op.partner = (op.line + 1 + rng.Intn(pmemLines-1)) % pmemLines
			op.replay = line()
		}
		ops[i] = op
	}

	type target struct {
		name   string
		kind   secureproc.CipherKind
		key    []byte
		pm     *secureproc.ProtectedMemory
		ps     *integrity.ProtectedStore
		shadow [][]byte
	}
	targets := []*target{
		{name: "des", kind: secureproc.CipherDES, key: []byte("8bytekey")},
		{name: "aes", kind: secureproc.CipherAES, key: []byte("sixteen byte key")},
	}
	macKey := []byte("pmem benchmark mac key")
	for _, tg := range targets {
		var err error
		if tg.pm, err = secureproc.NewProtectedMemory(tg.kind, tg.key, lineBytes); err != nil {
			return err
		}
		if tg.ps, err = integrity.NewProtectedStore(macKey, lineBytes); err != nil {
			return err
		}
		tg.shadow = make([][]byte, pmemLines)
		for i, pt := range initial {
			if err := writeLine(nil, 0, tg.pm, tg.ps, va(i), pt); err != nil {
				return err
			}
			tg.shadow[i] = pt
		}
	}
	fmt.Println(readyLine)

	var tr *Tracer
	if *spans != "" {
		tr = newTracer()
	}
	var res pmemChildResult
	check := func(ok bool, format string, a ...any) {
		res.Checked++
		if !ok {
			res.Failed++
			if len(res.Failures) < 20 {
				res.Failures = append(res.Failures, fmt.Sprintf(format, a...))
			}
		}
	}
	step := func(tg *target, pass int32, i int, op pmemOp) error {
		a := va(op.line)
		if op.write {
			if err := writeLine(tr, pass, tg.pm, tg.ps, a, op.data); err != nil {
				return err
			}
			tg.shadow[op.line] = op.data
			return nil
		}
		if op.tamper != 0 {
			sp := tr.Begin("pmem.tamper", pass, uint32(i))
			restore, err := tamper(tr, sp, tg.pm, tg.ps, op, tg.shadow)
			if err != nil {
				return err
			}
			_, terr := tg.ps.Read(a)
			check(terr != nil, "%s op %d: tamper %d on line %d was not detected", tg.name, i, op.tamper, op.line)
			restore()
			tr.End(sp)
		}
		sp := tr.Begin("integrity.verify", pass, uint32(i))
		_, err := tg.ps.Read(a)
		tr.End(sp)
		check(err == nil, "%s op %d: MAC verify of line %d: %v", tg.name, i, op.line, err)
		sp = tr.Begin("core.securemem_read", pass, uint32(i))
		pt, err := tg.pm.ReadLine(a)
		tr.End(sp)
		check(err == nil && bytes.Equal(pt, tg.shadow[op.line]), "%s op %d: line %d read back wrong (%v)", tg.name, i, op.line, err)
		return nil
	}
	// Alternating short chunks of the same stream keeps a burst of outside
	// load from landing on one cipher only; each chunk yields one rate.
	per := len(ops) / pmemChunks
	for c := 0; c < pmemChunks; c++ {
		for _, tg := range targets {
			pass := tr.Begin("pmem."+tg.name, noSpan, uint32(*req))
			t0 := time.Now()
			for i := c * per; i < (c+1)*per; i++ {
				if err := step(tg, pass, i, ops[i]); err != nil {
					return err
				}
			}
			mbs := float64(per*lineBytes) / time.Since(t0).Seconds() / 1e6
			tr.End(pass)
			if tg.kind == secureproc.CipherDES {
				res.DESMBs = append(res.DESMBs, mbs)
			} else {
				res.AESMBs = append(res.AESMBs, mbs)
			}
		}
	}
	if tr != nil {
		for _, l := range tr.Layers() {
			res.Layers = append(res.Layers, l)
		}
		if err := tr.WriteFile(fmt.Sprintf("%s-%d.json", *spans, os.Getpid())); err != nil {
			return err
		}
	}
	return childReport(res)
}

func va(line int) uint64 { return pmemBase + uint64(line)*lineBytes }

// writeLine is one protected write: OTP-encrypt into memory, then store
// the ciphertext with a fresh MAC.
func writeLine(tr *Tracer, parent int32, pm *secureproc.ProtectedMemory, ps *integrity.ProtectedStore, a uint64, pt []byte) error {
	sp := tr.Begin("core.securemem_write", parent, 0)
	err := pm.WriteLineOTP(a, pt)
	tr.End(sp)
	if err != nil {
		return err
	}
	ct, err := pm.RawLine(a)
	if err != nil {
		return err
	}
	sp = tr.Begin("integrity.mac_write", parent, 0)
	err = ps.Write(a, ct)
	tr.End(sp)
	return err
}

// tamper mounts op's attack on the MAC store and returns the function that
// puts the valid (ciphertext, MAC) pairs back.
func tamper(tr *Tracer, parent int32, pm *secureproc.ProtectedMemory, ps *integrity.ProtectedStore, op pmemOp, shadow [][]byte) (func(), error) {
	a := va(op.line)
	ct, mac := ps.Snapshot(a)
	switch op.tamper {
	case 1: // spoof: flip bits in place
		bad := append([]byte(nil), ct...)
		bad[0] ^= 0xff
		ps.TamperSpoof(a, bad)
		return func() { ps.TamperReplay(a, ct, mac) }, nil
	case 2: // splice: swap two lines and their MACs
		b := va(op.partner)
		ctB, macB := ps.Snapshot(b)
		ps.TamperSplice(a, b)
		return func() { ps.TamperReplay(a, ct, mac); ps.TamperReplay(b, ctB, macB) }, nil
	default: // replay: an old but once-valid pair after a fresh write
		if err := writeLine(tr, parent, pm, ps, a, op.replay); err != nil {
			return nil, err
		}
		shadow[op.line] = op.replay
		cur, curMAC := ps.Snapshot(a)
		ps.TamperReplay(a, ct, mac)
		return func() { ps.TamperReplay(a, cur, curMAC) }, nil
	}
}
