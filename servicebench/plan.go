package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/internal/a2a"
	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/workload"
	"repro/internal/x2y"
)

// planCfg shapes a /v1/plan sequence. Every block holds each (distribution,
// m, q) cell of the grid twice as A2A and once as X2Y, in a seeded order, so
// every run sees the same mix whatever its seed.
type planCfg struct {
	ms     []int
	qs     []core.Size
	blocks int // blocks of new instances per client
	ops    int // ops per client; 0 runs until the deadline
}

var (
	// planMain is the portfolio-study corpus grid: every m and q the
	// planner portfolio was weighed on.
	planMain = planCfg{ms: []int{8, 12, 40, 150, 600}, qs: []core.Size{64, 256, 1024}, blocks: 24}
	// planProbe gives the plan metrics of workloads that send no plans:
	// small instances, 1400 new and 1400 repeated in all.
	planProbe = planCfg{ms: []int{8, 12, 40}, qs: []core.Size{64, 256, 1024}, blocks: 9, ops: 1400}
)

var planDists = []workload.Distribution{workload.Uniform, workload.Zipf, workload.Bimodal}

// sizeSpec draws sizes in [1, q/2]; bimodal puts 5% of the inputs at q/2.
func sizeSpec(d workload.Distribution, q core.Size) workload.SizeSpec {
	return workload.SizeSpec{Dist: d, Min: 1, Max: q / 2, Skew: 1.5, BigFraction: 0.05}
}

// planInst is one distinct instance, in its original input order.
type planInst struct {
	a2a  bool
	q    core.Size
	x, y []core.Size // A2A uses x
	// corpus marks the instances the cost ratios and the solver census sum
	// over: the first block of every client.
	corpus bool

	once     sync.Once
	xs, ys   *core.InputSet
	lbRed    int
	lbComm   core.Size
	seen     bool // a checked response for the instance arrived
	reducers int
	comm     core.Size
}

func (in *planInst) sets() (*core.InputSet, *core.InputSet) {
	in.once.Do(func() {
		in.xs = core.MustNewInputSet(in.x)
		if in.a2a {
			b := a2a.LowerBounds(in.xs, in.q)
			in.lbRed, in.lbComm = b.Reducers, b.Communication
			return
		}
		in.ys = core.MustNewInputSet(in.y)
		b := x2y.LowerBounds(in.xs, in.ys, in.q)
		in.lbRed, in.lbComm = b.Reducers, b.Communication
	})
	return in.xs, in.ys
}

// planOp is one request: an instance, permuted and for X2Y maybe with its
// sides swapped. px/py map request positions to original IDs of the side
// the request position came from.
type planOp struct {
	inst   *planInst
	isNew  bool
	swap   bool
	px, py []int
	rx, ry []core.Size
	body   []byte
}

type planBody struct {
	Problem   string      `json:"problem"`
	Capacity  core.Size   `json:"capacity"`
	Sizes     []core.Size `json:"sizes,omitempty"`
	XSizes    []core.Size `json:"x_sizes,omitempty"`
	YSizes    []core.Size `json:"y_sizes,omitempty"`
	TimeoutMS int         `json:"timeout_ms"`
}

type planResp struct {
	Schema        *core.MappingSchema `json:"schema"`
	Reducers      int                 `json:"reducers"`
	Communication core.Size           `json:"communication"`
	CacheHit      bool                `json:"cache_hit"`
}

type planSeq struct {
	cfg planCfg
	ops [][]planOp
}

func genPlan(cfg planCfg, seed int64, clients int) *planSeq {
	seq := &planSeq{cfg: cfg, ops: make([][]planOp, clients)}
	type cell struct {
		d   workload.Distribution
		m   int
		q   core.Size
		a2a bool
	}
	var grid []cell
	for _, d := range planDists {
		for _, m := range cfg.ms {
			for _, q := range cfg.qs {
				grid = append(grid, cell{d, m, q, true}, cell{d, m, q, true}, cell{d, m, q, false})
			}
		}
	}
	for c := range seq.ops {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 1))
		var prev []*planInst
		for b := 0; b < cfg.blocks; b++ {
			block := make([]*planInst, len(grid))
			for i, k := range rng.Perm(len(grid)) {
				g := grid[k]
				inst := &planInst{a2a: g.a2a, q: g.q, corpus: b == 0}
				s := rng.Int63()
				if g.a2a {
					inst.x = mustSizes(sizeSpec(g.d, g.q), g.m, s)
				} else {
					inst.x = mustSizes(sizeSpec(g.d, g.q), g.m/2, s)
					inst.y = mustSizes(sizeSpec(g.d, g.q), g.m-g.m/2, s+1)
				}
				block[i] = inst
			}
			// Each new instance is followed by a repeat. The repeats of a
			// block permute the previous block (the first block repeats
			// the instance just sent), so hits mix the grid in the same
			// proportions as misses.
			order := rng.Perm(len(grid))
			for i, inst := range block {
				rep := inst
				if prev != nil {
					rep = prev[order[i]]
				}
				seq.ops[c] = append(seq.ops[c],
					newPlanOp(inst, true, false, identity(len(inst.x)), identity(len(inst.y))),
					newPlanOp(rep, false, !rep.a2a && rng.Intn(2) == 0, rng.Perm(len(rep.x)), rng.Perm(len(rep.y))))
			}
			prev = block
		}
		if cfg.ops > 0 && len(seq.ops[c]) > cfg.ops {
			seq.ops[c] = seq.ops[c][:cfg.ops]
		}
	}
	return seq
}

func mustSizes(spec workload.SizeSpec, m int, seed int64) []core.Size {
	s, err := workload.Sizes(spec, m, seed)
	if err != nil {
		panic(err) // the specs above are valid by construction
	}
	return s
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// newPlanOp builds the request: px permutes the side that goes first in the
// request (original Y when swap), py the other.
func newPlanOp(in *planInst, isNew, swap bool, px, py []int) planOp {
	op := planOp{inst: in, isNew: isNew, swap: swap}
	first, second := in.x, in.y
	if swap {
		first, second = in.y, in.x
		px, py = py, px
	}
	op.px, op.py = px, py
	op.rx = make([]core.Size, len(px))
	for j, id := range px {
		op.rx[j] = first[id]
	}
	op.ry = make([]core.Size, len(py))
	for j, id := range py {
		op.ry[j] = second[id]
	}
	body := planBody{Capacity: in.q, TimeoutMS: -1}
	if in.a2a {
		body.Problem, body.Sizes = "A2A", op.rx
	} else {
		body.Problem, body.XSizes, body.YSizes = "X2Y", op.rx, op.ry
	}
	op.body, _ = json.Marshal(body)
	return op
}

// check validates a /v1/plan response against the original, un-permuted
// instance: the schema, mapped back through the request's permutation,
// must be valid, its reducer count must match and reach the lower bound.
// The decoded response comes back whenever it decoded, so its flags are
// tallied even when a check fails.
func (op *planOp) check(raw []byte) (*planResp, error) {
	var r planResp
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decoding plan response: %w", err)
	}
	if r.Schema == nil {
		return &r, errors.New("plan response has no schema")
	}
	if r.Reducers != r.Schema.NumReducers() {
		return &r, fmt.Errorf("reducers field %d, schema has %d", r.Reducers, r.Schema.NumReducers())
	}
	in := op.inst
	xs, ys := in.sets()
	orig := &core.MappingSchema{Problem: r.Schema.Problem, Capacity: r.Schema.Capacity, Reducers: make([]core.Reducer, len(r.Schema.Reducers))}
	for i, red := range r.Schema.Reducers {
		o := core.Reducer{Load: red.Load, Inputs: remap(red.Inputs, op.px)}
		if op.swap {
			o.XInputs, o.YInputs = remap(red.YInputs, op.py), remap(red.XInputs, op.px)
		} else {
			o.XInputs, o.YInputs = remap(red.XInputs, op.px), remap(red.YInputs, op.py)
		}
		orig.Reducers[i] = o
	}
	var err error
	if in.a2a {
		err = orig.ValidateA2A(xs)
	} else {
		err = orig.ValidateX2Y(xs, ys)
	}
	if err != nil {
		return &r, fmt.Errorf("schema invalid: %w", err)
	}
	if r.Reducers < in.lbRed {
		return &r, fmt.Errorf("%d reducers below the lower bound %d", r.Reducers, in.lbRed)
	}
	return &r, nil
}

// remap translates request IDs to original IDs; an ID out of range maps to
// -1, which validation rejects.
func remap(ids, perm []int) []int {
	if ids == nil {
		return nil
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		if id < 0 || id >= len(perm) {
			out[i] = -1
			continue
		}
		out[i] = perm[id]
	}
	return out
}

// planRun is the e2e result of a plan sequence.
type planRun struct {
	seq  *planSeq
	t    *tally
	done []int
	wall time.Duration
}

func (seq *planSeq) run(p *plandProc, deadline time.Time) *planRun {
	r := &planRun{seq: seq, t: newTally()}
	conns := []*http.Client{newConn(), newConn()}
	send := func(c int, op *planOp, timed bool) {
		status, raw, lat, err := call(conns[c], http.MethodPost, p.base+"/v1/plan", op.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, raw)
		}
		var resp *planResp
		if err == nil {
			resp, err = op.check(raw)
		}
		class := "plan_completion"
		if timed {
			class = "plan_miss"
			if resp != nil && resp.CacheHit {
				class = "plan_hit"
			}
		}
		r.t.record(class, lat, len(op.body), len(raw), err)
		if resp != nil && resp.CacheHit {
			r.t.mu.Lock()
			r.t.hits++
			r.t.mu.Unlock()
		}
		if err == nil && op.isNew && !op.inst.seen {
			op.inst.seen, op.inst.reducers, op.inst.comm = true, resp.Reducers, resp.Communication
		}
	}
	r.done, r.wall = closedLoop(len(seq.ops), deadline, func(c, i int) bool {
		if i >= len(seq.ops[c]) {
			return false
		}
		send(c, &seq.ops[c][i], true)
		return true
	})
	// The cost ratios sum over the whole first block; a run that did not
	// reach its end sends the rest now, outside the timed phase.
	for c, ops := range seq.ops {
		for i := r.done[c]; i < len(ops); i++ {
			if op := &ops[i]; op.isNew && op.inst.corpus && !op.inst.seen {
				send(c, op, false)
			}
		}
	}
	return r
}

func (seq *planSeq) corpus() []*planInst {
	var out []*planInst
	for _, ops := range seq.ops {
		for i := range ops {
			if ops[i].isNew && ops[i].inst.corpus {
				out = append(out, ops[i].inst)
			}
		}
	}
	return out
}

// classes reports the latency of each plan op class.
func (r *planRun) classes(m metrics) {
	m.set("pland.plan_miss_p50_ms", "ms", r.t.p50("plan_miss"))
	m.set("pland.plan_miss_p99_ms", "ms", r.t.p99("plan_miss"))
	m.set("pland.plan_hit_p50_ms", "ms", r.t.p50("plan_hit"))
	m.set("pland.plan_hit_p99_ms", "ms", r.t.p99("plan_hit"))
}

// costs sums the served schemas over the corpus.
func (r *planRun) costs() costs {
	var c costs
	for _, in := range r.seq.corpus() {
		c.add(in.reducers, in.lbRed, in.comm, in.lbComm)
	}
	return c
}

func (r *planRun) ops() int { return r.done[0] + r.done[1] }

// trace replays the ops the e2e run completed against an in-process
// planner, two goroutines like the two clients, then runs the census.
func (r *planRun) trace(tr *tracer, deadline time.Time, m metrics) {
	pl := planner.New(planner.Config{})
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := range r.seq.ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < r.done[c] && time.Now().Before(deadline); i++ {
				op := &r.seq.ops[c][i]
				id := int64(c)<<32 | int64(i)
				root := tr.begin("plan", id, -1)
				req := planner.Request{Capacity: op.inst.q, Budget: planner.Budget{Timeout: -1}}
				tr.do("core.NewInputSet", id, root, func(int) {
					if op.inst.a2a {
						req.Problem, req.Set = core.ProblemA2A, core.MustNewInputSet(op.rx)
					} else {
						req.Problem, req.X, req.Y = core.ProblemX2Y, core.MustNewInputSet(op.rx), core.MustNewInputSet(op.ry)
					}
				})
				ps := tr.begin("planner.Plan", id, root)
				res, err := pl.Plan(ctx, req)
				tag := "miss"
				if err == nil && res.CacheHit {
					tag = "hit"
				}
				tr.end(ps, tag)
				tr.end(root, tag)
				if err != nil {
					logf("traced plan failed: %v", err)
					continue
				}
				if tag == "miss" {
					tr.do("planner.LowerBounds", id, -1, func(int) {
						if op.inst.a2a {
							a2a.LowerBounds(req.Set, req.Capacity)
						} else {
							x2y.LowerBounds(req.X, req.Y, req.Capacity)
						}
					})
				}
			}
		}(c)
	}
	wg.Wait()
	st := pl.Stats()
	m.set("planner.hit_ms", "ms", quantile(tr.durs("planner.Plan", "hit"), 0.5))
	m.set("planner.miss_ms", "ms", quantile(tr.durs("planner.Plan", "miss"), 0.5))
	m.set("planner.hit_ratio", "ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses+st.SharedFlights)))
	m.set("planner.lower_bound_ms", "ms", quantile(tr.durs("planner.LowerBounds", ""), 0.5))
	m.set("pland.overhead_ms.plan_hit", "ms", r.t.p50("plan_hit")-quantile(tr.durs("plan", "hit"), 0.5))
	m.set("pland.overhead_ms.plan_miss", "ms", r.t.p50("plan_miss")-quantile(tr.durs("plan", "miss"), 0.5))
	m.set("pland.resp_kb.plan", "KiB", mean(append(append([]float64(nil), r.t.bytes["resp.plan_hit"]...), r.t.bytes["resp.plan_miss"]...))/1024)
	census(r.seq.corpus(), m)
}

// member is one planner portfolio member, rebuilt here with the options and
// eligibility caps internal/planner uses so each can run alone.
type member struct {
	name string
	a2a  bool
	max  int // largest eligible instance, 0 for no cap
	run  func(x, y *core.InputSet, q core.Size) (*core.MappingSchema, error)
}

// greedyMaxInputs mirrors the planner's unexported cap on the quadratic
// coverage-greedy members.
const greedyMaxInputs = 400

var members = []member{
	{"a2a.solve", true, 0, func(x, _ *core.InputSet, q core.Size) (*core.MappingSchema, error) { return a2a.Solve(x, q) }},
	{"a2a.solve-bfd", true, 0, func(x, _ *core.InputSet, q core.Size) (*core.MappingSchema, error) {
		return a2a.SolveWithOptions(x, q, a2a.Options{Policy: binpack.BestFitDecreasing, PreferEqualSized: true})
	}},
	{"a2a.solve-wfd", true, 0, func(x, _ *core.InputSet, q core.Size) (*core.MappingSchema, error) {
		return a2a.SolveWithOptions(x, q, a2a.Options{Policy: binpack.WorstFitDecreasing, PreferEqualSized: true})
	}},
	{"a2a.greedy", true, greedyMaxInputs, func(x, _ *core.InputSet, q core.Size) (*core.MappingSchema, error) { return a2a.Greedy(x, q) }},
	{"a2a.exact", true, planner.DefaultExactMaxInputs, func(x, _ *core.InputSet, q core.Size) (*core.MappingSchema, error) {
		ms, err := a2a.Exact(x, q, a2a.ExactOptions{MaxInputs: planner.DefaultExactMaxInputs, MaxNodes: planner.DefaultExactMaxNodes})
		if errors.Is(err, a2a.ErrNodeBudget) {
			err = nil
		}
		return ms, err
	}},
	{"x2y.solve", false, 0, func(x, y *core.InputSet, q core.Size) (*core.MappingSchema, error) { return x2y.Solve(x, y, q) }},
	{"x2y.solve-bfd", false, 0, func(x, y *core.InputSet, q core.Size) (*core.MappingSchema, error) {
		return x2y.SolveWithOptions(x, y, q, x2y.Options{Policy: binpack.BestFitDecreasing, OptimizeSplit: true})
	}},
	{"x2y.solve-wfd", false, 0, func(x, y *core.InputSet, q core.Size) (*core.MappingSchema, error) {
		return x2y.SolveWithOptions(x, y, q, x2y.Options{Policy: binpack.WorstFitDecreasing, OptimizeSplit: true})
	}},
	{"x2y.greedy", false, greedyMaxInputs, func(x, y *core.InputSet, q core.Size) (*core.MappingSchema, error) { return x2y.Greedy(x, y, q) }},
	{"x2y.exact", false, planner.DefaultExactMaxInputs, func(x, y *core.InputSet, q core.Size) (*core.MappingSchema, error) {
		ms, err := x2y.Exact(x, y, q, x2y.ExactOptions{MaxInputs: planner.DefaultExactMaxInputs, MaxNodes: planner.DefaultExactMaxNodes})
		if errors.Is(err, x2y.ErrNodeBudget) {
			err = nil
		}
		return ms, err
	}},
}

// census runs every eligible portfolio member alone on every corpus
// instance, in the canonical form the planner solves, and reports each
// member's CPU time, how often it alone was best, and how often it ran.
func census(corpus []*planInst, m metrics) {
	cpu := map[string]time.Duration{}
	unique := map[string]int{}
	runs := map[string]int{}
	for _, in := range corpus {
		x, y := canonicalSets(in)
		n := x.Len()
		if y != nil {
			n += y.Len()
		}
		type outcome struct {
			name     string
			reducers int
			load     core.Size
		}
		var got []outcome
		for _, mb := range members {
			if mb.a2a != in.a2a || (mb.max > 0 && n > mb.max) {
				continue
			}
			runs[mb.name]++
			before := cpuTime()
			ms, err := mb.run(x, y, in.q)
			cpu[mb.name] += cpuTime() - before
			if err != nil || ms == nil {
				continue
			}
			got = append(got, outcome{mb.name, ms.NumReducers(), maxLoad(ms)})
		}
		best, ties := -1, 0
		for i, o := range got {
			switch {
			case best < 0 || o.reducers < got[best].reducers || (o.reducers == got[best].reducers && o.load < got[best].load):
				best, ties = i, 1
			case o.reducers == got[best].reducers && o.load == got[best].load:
				ties++
			}
		}
		if best >= 0 && ties == 1 {
			unique[got[best].name]++
		}
	}
	for _, mb := range members {
		m.set("solver."+mb.name+".cpu_ms", "ms", ms(cpu[mb.name]))
		m.set("solver."+mb.name+".unique_best", "count", float64(unique[mb.name]))
		m.set("solver."+mb.name+".runs", "count", float64(runs[mb.name]))
	}
}

// canonicalSets returns the instance in the planner's canonical form:
// each side in canonical size order and, for X2Y, the shorter (then
// lexicographically smaller) side first.
func canonicalSets(in *planInst) (*core.InputSet, *core.InputSet) {
	xs, ys := in.sets()
	x := core.MustNewInputSet(xs.CanonicalSizes())
	if in.a2a {
		return x, nil
	}
	y := core.MustNewInputSet(ys.CanonicalSizes())
	if sideLess(y.Sizes(), x.Sizes()) {
		return y, x
	}
	return x, y
}

func sideLess(a, b []core.Size) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func maxLoad(ms *core.MappingSchema) core.Size {
	var m core.Size
	for _, r := range ms.Reducers {
		m = max(m, r.Load)
	}
	return m
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
