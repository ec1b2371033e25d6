package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/workload"
)

// execShape is one distinct /v1/execute instance: n payloads for A2A, or
// nx and ny for X2Y, with sizes in [1, 64] bytes, and how many unbounded
// and spilled requests for it each block holds.
type execShape struct {
	a2a          bool
	n            int
	nx, ny       int
	dist         workload.Distribution
	plain, spill int
}

// execShapes is the execute traffic of the traced run: audited executes of
// pre-planned instances of 250-600 payloads, one in four under a
// spill-forcing budget, in seeded blocks cut to execOps per client.
// Payload sizes are Zipf-distributed: few reducers, so a spilled run costs
// a small multiple of an unbounded one. (With uniform sizes a spilled X2Y
// run took from 3 to 80 times its unbounded time.)
var execShapes = []execShape{
	{a2a: true, n: 500, dist: workload.Zipf, plain: 3, spill: 1},
	{a2a: true, n: 600, dist: workload.Zipf, plain: 3, spill: 1},
	{a2a: false, nx: 250, ny: 300, dist: workload.Zipf, plain: 3, spill: 1},
}

const (
	execQ      = 1024
	execBlocks = 5
	execOps    = 48
)

type execInst struct {
	shape execShape
	q     core.Size
	x, y  [][]byte // payloads; A2A uses x
	pairs int64
	plan  planOp // the /v1/plan request set-up sends for it
	// budget is the memory_budget of the spilled requests: the instance's
	// communication lower bound, about a quarter of its shuffle bytes, so
	// the run spills however the pipeline interleaves.
	budget int64
}

type execOp struct {
	inst  *execInst
	spill bool
	body  []byte
}

type execBody struct {
	Problem      string    `json:"problem"`
	Capacity     core.Size `json:"capacity"`
	Inputs       []string  `json:"inputs,omitempty"`
	XInputs      []string  `json:"x_inputs,omitempty"`
	YInputs      []string  `json:"y_inputs,omitempty"`
	MemoryBudget int64     `json:"memory_budget,omitempty"`
}

type execResp struct {
	Schema         *core.MappingSchema `json:"schema"`
	CacheHit       bool                `json:"cache_hit"`
	Pairs          int64               `json:"pairs"`
	ShuffleRecords int64               `json:"shuffle_records"`
	SpillRuns      int64               `json:"spill_runs"`
	Audited        bool                `json:"audited"`
}

type execSeq struct {
	insts []*execInst
	ops   [][]execOp
}

func genExec(seed int64, clients int) *execSeq {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 2))
	seq := &execSeq{ops: make([][]execOp, clients)}
	type variant struct{ plain, spill []byte }
	var bodies []variant
	for _, sh := range execShapes {
		in := &execInst{shape: sh, q: execQ}
		pi := &planInst{a2a: sh.a2a, q: execQ}
		body := execBody{Capacity: execQ}
		if sh.a2a {
			in.x = payloads(sh.dist, sh.n, rng)
			in.pairs = int64(sh.n) * int64(sh.n-1) / 2
			pi.x = lengths(in.x)
			body.Problem, body.Inputs = "A2A", strs(in.x)
		} else {
			in.x, in.y = payloads(sh.dist, sh.nx, rng), payloads(sh.dist, sh.ny, rng)
			in.pairs = int64(sh.nx) * int64(sh.ny)
			pi.x, pi.y = lengths(in.x), lengths(in.y)
			body.Problem, body.XInputs, body.YInputs = "X2Y", strs(in.x), strs(in.y)
		}
		in.plan = newPlanOp(pi, true, false, identity(len(pi.x)), identity(len(pi.y)))
		pi.sets()
		in.budget = int64(pi.lbComm)
		var v variant
		v.plain, _ = json.Marshal(body)
		body.MemoryBudget = in.budget
		v.spill, _ = json.Marshal(body)
		seq.insts = append(seq.insts, in)
		bodies = append(bodies, v)
	}
	var block []execOp
	for i, in := range seq.insts {
		for k := 0; k < in.shape.plain; k++ {
			block = append(block, execOp{inst: in, body: bodies[i].plain})
		}
		for k := 0; k < in.shape.spill; k++ {
			block = append(block, execOp{inst: in, spill: true, body: bodies[i].spill})
		}
	}
	for c := range seq.ops {
		for b := 0; b < execBlocks; b++ {
			for _, k := range rng.Perm(len(block)) {
				seq.ops[c] = append(seq.ops[c], block[k])
			}
		}
		seq.ops[c] = seq.ops[c][:execOps]
	}
	return seq
}

// payloads draws n payloads of lowercase letters with sizes in [1, 64].
func payloads(d workload.Distribution, n int, rng *rand.Rand) [][]byte {
	sizes := mustSizes(workload.SizeSpec{Dist: d, Min: 1, Max: 64, Skew: 1.5}, n, rng.Int63())
	out := make([][]byte, n)
	for i, s := range sizes {
		b := make([]byte, s)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		out[i] = b
	}
	return out
}

func lengths(p [][]byte) []core.Size {
	out := make([]core.Size, len(p))
	for i, b := range p {
		out[i] = core.Size(len(b))
	}
	return out
}

func strs(p [][]byte) []string {
	out := make([]string, len(p))
	for i, b := range p {
		out[i] = string(b)
	}
	return out
}

// preload plans every instance once through /v1/plan, so the timed phase
// only meets planner cache hits.
func (seq *execSeq) preload(p *plandProc, t *tally) {
	c := newConn()
	for _, in := range seq.insts {
		status, raw, lat, err := call(c, http.MethodPost, p.base+"/v1/plan", in.plan.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, raw)
		}
		if err == nil {
			_, err = in.plan.check(raw)
		}
		t.record("preload", lat, len(in.plan.body), len(raw), err)
	}
}

// check validates an execute response: the pair count, the audit flag, the
// shuffle record count against the schema's replication, and spill. Like
// planOp.check it returns whatever decoded.
func (op *execOp) check(raw []byte) (*execResp, error) {
	var r execResp
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decoding execute response: %w", err)
	}
	if r.Schema == nil {
		return &r, errors.New("execute response has no schema")
	}
	if r.Pairs != op.inst.pairs {
		return &r, fmt.Errorf("pairs %d, want %d", r.Pairs, op.inst.pairs)
	}
	if !r.Audited {
		return &r, errors.New("run not audited")
	}
	var members int64
	for _, red := range r.Schema.Reducers {
		members += int64(len(red.Inputs) + len(red.XInputs) + len(red.YInputs))
	}
	if r.ShuffleRecords != members {
		return &r, fmt.Errorf("shuffle_records %d, schema replicates %d records", r.ShuffleRecords, members)
	}
	if op.spill && r.SpillRuns <= 0 {
		return &r, errors.New("spill-forcing budget wrote no spill runs")
	}
	return &r, nil
}

type execRun struct {
	seq  *execSeq
	t    *tally
	done []int
	wall time.Duration
}

func (seq *execSeq) run(p *plandProc, deadline time.Time) *execRun {
	r := &execRun{seq: seq, t: newTally()}
	conns := []*http.Client{newConn(), newConn()}
	r.done, r.wall = closedLoop(len(seq.ops), deadline, func(c, i int) bool {
		if i >= len(seq.ops[c]) {
			return false
		}
		op := &seq.ops[c][i]
		status, raw, lat, err := call(conns[c], http.MethodPost, p.base+"/v1/execute", op.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, raw)
		}
		var resp *execResp
		if err == nil {
			resp, err = op.check(raw)
		}
		class := "execute"
		if op.spill {
			class = "execute_spill"
		}
		r.t.record(class, lat, len(op.body), len(raw), err)
		if resp != nil {
			r.t.mu.Lock()
			if err == nil {
				r.t.pairs += resp.Pairs
			}
			r.t.spillRuns += resp.SpillRuns
			if resp.CacheHit {
				r.t.hits++
			}
			r.t.mu.Unlock()
		}
		return true
	})
	return r
}

func (r *execRun) ops() int { return r.done[0] + r.done[1] }

// classes reports the latency of each execute op class and the pair rate.
func (r *execRun) classes(m metrics) {
	m.set("pland.execute_p50_ms", "ms", r.t.p50("execute"))
	m.set("pland.execute_spill_p50_ms", "ms", r.t.p50("execute_spill"))
	m.set("pland.pairs_per_s", "pairs/s", float64(r.t.pairs)/r.wall.Seconds())
}

func noPair(a, b exec.Record, emit func([]byte)) error { return nil }

func (in *execInst) request(schema *core.MappingSchema) exec.Request {
	req := exec.Request{Name: "pland-execute", Schema: schema, Pair: noPair}
	if in.shape.a2a {
		req.Inputs = in.x
	} else {
		req.XInputs, req.YInputs = in.x, in.y
	}
	return req
}

// trace replays the completed ops in-process: plan (a cache hit after the
// same preload) and the audited exec.Run, plus, outside each op, the same
// run without audit and the auditor's PreCheck on its own.
func (r *execRun) trace(tr *tracer, deadline time.Time, workdir string, m metrics) error {
	spillDir, err := os.MkdirTemp(workdir, "trace-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)
	pl := planner.New(planner.Config{})
	ctx := context.Background()
	plan := func(in *execInst) (*planner.Result, error) {
		req := planner.Request{Capacity: in.q, Budget: planner.Budget{Timeout: -1}}
		if in.shape.a2a {
			req.Problem, req.Set = core.ProblemA2A, core.MustNewInputSet(lengths(in.x))
		} else {
			req.Problem, req.X, req.Y = core.ProblemX2Y, core.MustNewInputSet(lengths(in.x)), core.MustNewInputSet(lengths(in.y))
		}
		return pl.Plan(ctx, req)
	}
	for _, in := range r.seq.insts {
		if _, err := plan(in); err != nil {
			return fmt.Errorf("traced preload: %w", err)
		}
	}
	var (
		mu                         sync.Mutex
		mapMS, reduceMS, shuffleMB []float64
		shuffleOverComm            []float64
		spillRuns, spillMB         []float64
		firstErr                   error
	)
	var wg sync.WaitGroup
	for c := range r.seq.ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < r.done[c] && time.Now().Before(deadline); i++ {
				op := &r.seq.ops[c][i]
				id := int64(c)<<32 | int64(i)
				tag := "plain"
				if op.spill {
					tag = "spill"
				}
				root := tr.begin("execute", id, -1)
				var res *planner.Result
				var perr error
				tr.do("planner.Plan", id, root, func(int) { res, perr = plan(op.inst) })
				if perr != nil {
					tr.end(root, tag)
					mu.Lock()
					firstErr = perr
					mu.Unlock()
					return
				}
				req := op.inst.request(res.Schema)
				if op.spill {
					req.MemoryBudget, req.SpillDir = op.inst.budget, spillDir
				}
				var out *exec.Result
				rs := tr.begin("exec.Run", id, root)
				out, perr = exec.Run(req)
				tr.end(rs, tag)
				tr.end(root, tag)
				if perr != nil {
					mu.Lock()
					firstErr = perr
					mu.Unlock()
					return
				}
				cn := out.Counters
				mu.Lock()
				if op.spill {
					spillRuns = append(spillRuns, float64(cn.SpillRuns))
					spillMB = append(spillMB, float64(cn.SpillBytes)/(1<<20))
				} else {
					mapMS = append(mapMS, ms(cn.MapWall))
					reduceMS = append(reduceMS, ms(cn.ReduceWall))
					shuffleMB = append(shuffleMB, float64(cn.ShuffleBytes)/(1<<20))
					shuffleOverComm = append(shuffleOverComm, ratio(float64(cn.ShuffleBytes), float64(res.Cost.Communication)))
				}
				mu.Unlock()
				if op.spill {
					continue
				}
				req.NoAudit = true
				tr.do("exec.Run.noaudit", id, -1, func(int) { _, perr = exec.Run(req) })
				tr.do("exec.PreCheck", id, -1, func(int) {
					var aud *exec.Auditor
					if op.inst.shape.a2a {
						aud, perr = exec.NewAuditor(res.Schema, len(op.inst.x))
					} else {
						aud, perr = exec.NewAuditorX2Y(res.Schema, len(op.inst.x), len(op.inst.y))
					}
					if perr == nil {
						perr = aud.PreCheck()
					}
				})
				if perr != nil {
					mu.Lock()
					firstErr = perr
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("traced execute: %w", firstErr)
	}
	if left, _ := filepath.Glob(filepath.Join(spillDir, "mr-spill-*")); len(left) > 0 {
		return fmt.Errorf("traced execute left %d spill dirs behind", len(left))
	}
	// Allocation counts need a quiet heap: one audited run per instance,
	// alone, after the concurrent replay.
	var allocs, bytes, kpairs float64
	for _, in := range r.seq.insts {
		res, err := plan(in)
		if err != nil {
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := exec.Run(in.request(res.Schema))
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		allocs += float64(after.Mallocs - before.Mallocs)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
		kpairs += float64(out.PairsProcessed) / 1000
	}
	run := quantile(tr.durs("exec.Run", "plain"), 0.5)
	noAudit := quantile(tr.durs("exec.Run.noaudit", ""), 0.5)
	m.set("exec.run_ms", "ms", run)
	m.set("exec.run_noaudit_ms", "ms", noAudit)
	m.set("exec.audit_share", "ratio", ratio(run-noAudit, run))
	m.set("exec.precheck_ms", "ms", quantile(tr.durs("exec.PreCheck", ""), 0.5))
	m.set("exec.allocs_per_kpair", "count", ratio(allocs, kpairs))
	m.set("exec.kb_per_kpair", "KiB", ratio(bytes/1024, kpairs))
	m.set("mr.map_ms", "ms", quantile(mapMS, 0.5))
	m.set("mr.reduce_ms", "ms", quantile(reduceMS, 0.5))
	m.set("mr.shuffle_mb", "MiB", mean(shuffleMB))
	m.set("mr.shuffle_over_comm", "ratio", mean(shuffleOverComm))
	m.set("mr.spill_runs", "count", mean(spillRuns))
	m.set("mr.spill_mb", "MiB", mean(spillMB))
	m.set("mr.spill_ms", "ms", quantile(tr.durs("exec.Run", "spill"), 0.5)-run)
	m.set("pland.overhead_ms.execute", "ms", r.t.p50("execute")-quantile(tr.durs("execute", "plain"), 0.5))
	m.set("pland.req_kb.execute", "KiB", mean(append(append([]float64(nil), r.t.bytes["req.execute"]...), r.t.bytes["req.execute_spill"]...))/1024)
	return nil
}
