package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/workload"
)

// fsyncPolicy is the WAL policy of the durable pland the session workload
// runs, and of the traced replay's journal on every workload.
const fsyncPolicy = "interval"

// sessCfg shapes a session sequence: each client owns one session of m
// inputs and plays a churn trace as PATCH batches, every getEvery-th op a
// GET of the session.
type sessCfg struct {
	m        int
	q        core.Size
	batch    int
	getEvery int
	ops      int     // ops per client
	rebuild  float64 // the sessions' rebuild_threshold; 0 keeps pland's default
}

var (
	sessMain = sessCfg{m: 1000, q: 1024, batch: 4, getEvery: 16, ops: 30000}
	// sessProbe gives the session metrics of workloads that open no
	// sessions: the same sessions, 1125 PATCHes in all, rebuilding at four
	// times the default drift so rebuild waits do not dominate the probe.
	sessProbe = sessCfg{m: 1000, q: 1024, batch: 4, getEvery: 16, ops: 600, rebuild: 4}
)

var churnSizes = workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 64}

type sessOp struct {
	get    bool
	lo, hi int // the PATCH's events
	body   []byte
}

type sessClient struct {
	initial []core.Size
	events  []workload.ChurnEvent
	ops     []sessOp
	create  []byte
	id      string // the session's ID once created
	// cost is the initial schema the create returned against the lower
	// bounds of the initial sizes.
	cost costs
}

type sessSeq struct {
	cfg     sessCfg
	clients []*sessClient
}

type deltaBody struct {
	Op   string    `json:"op"`
	Size core.Size `json:"size,omitempty"`
	ID   *int      `json:"id,omitempty"`
}

func genSession(cfg sessCfg, seed int64, clients int) *sessSeq {
	seq := &sessSeq{cfg: cfg}
	for c := 0; c < clients; c++ {
		s := seed*1_000_003 + int64(c)*7919 + 3
		sc := &sessClient{initial: mustSizes(churnSizes, cfg.m, s)}
		patches := cfg.ops - cfg.ops/cfg.getEvery
		ev, err := workload.Churn(workload.ChurnSpec{Initial: cfg.m, Steps: patches * cfg.batch, Sizes: churnSizes}, s+1)
		if err != nil {
			panic(err) // the spec above is valid by construction
		}
		sc.events = ev
		sc.create, _ = json.Marshal(map[string]any{"capacity": cfg.q, "sizes": sc.initial, "timeout_ms": -1, "rebuild_threshold": cfg.rebuild})
		next := 0
		for i := 0; i < cfg.ops; i++ {
			if (i+1)%cfg.getEvery == 0 {
				sc.ops = append(sc.ops, sessOp{get: true})
				continue
			}
			op := sessOp{lo: next, hi: next + cfg.batch}
			next = op.hi
			var deltas []deltaBody
			for _, e := range ev[op.lo:op.hi] {
				d := deltaBody{Op: e.Op.String()}
				if e.Op == workload.OpAdd {
					d.Size = e.Size
				} else {
					id := e.ID
					d.ID = &id
					if e.Op == workload.OpResize {
						d.Size = e.Size
					}
				}
				deltas = append(deltas, d)
			}
			op.body, _ = json.Marshal(map[string]any{"deltas": deltas})
			sc.ops = append(sc.ops, op)
		}
		seq.clients = append(seq.clients, sc)
	}
	return seq
}

type sessView struct {
	ID     string              `json:"id"`
	Schema *core.MappingSchema `json:"schema"`
	IDs    []int               `json:"ids"`
	Sizes  []core.Size         `json:"sizes"`
}

// checkView validates a session view against the inputs the client knows
// are live: the same IDs with the same sizes, and a valid schema over them.
func checkView(raw []byte, live map[int]core.Size) (*sessView, error) {
	var v sessView
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("decoding session: %w", err)
	}
	if v.Schema == nil {
		return nil, errors.New("session view has no schema")
	}
	if len(v.IDs) != len(live) || len(v.Sizes) != len(v.IDs) {
		return nil, fmt.Errorf("session lists %d inputs, %d are live", len(v.IDs), len(live))
	}
	for k, id := range v.IDs {
		if sz, ok := live[id]; !ok || sz != v.Sizes[k] {
			return nil, fmt.Errorf("input %d: session says size %d, client has %d (live %v)", id, v.Sizes[k], sz, ok)
		}
	}
	set, err := core.NewInputSet(v.Sizes)
	if err != nil {
		return nil, err
	}
	if err := v.Schema.ValidateA2A(set); err != nil {
		return nil, fmt.Errorf("session schema invalid: %w", err)
	}
	return &v, nil
}

type patchResp struct {
	Applied int `json:"applied"`
	Results []struct {
		Op    string          `json:"op"`
		ID    int             `json:"id"`
		Error json.RawMessage `json:"error"`
	} `json:"results"`
	RebuildJobID string `json:"rebuild_job_id"`
}

// checkPatch validates a PATCH response: every delta applied, in order, to
// the input the trace names.
func checkPatch(raw []byte, events []workload.ChurnEvent) (*patchResp, error) {
	var r patchResp
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("decoding patch response: %w", err)
	}
	if r.Applied != len(events) || len(r.Results) != len(events) {
		return nil, fmt.Errorf("applied %d of %d deltas: %.300s", r.Applied, len(events), raw)
	}
	for i, e := range events {
		res := r.Results[i]
		if res.Op != e.Op.String() || res.ID != e.ID || len(res.Error) > 0 {
			return nil, fmt.Errorf("delta %d: got %s id %d, want %s id %d", i, res.Op, res.ID, e.Op, e.ID)
		}
	}
	return &r, nil
}

func initialLive(sizes []core.Size) map[int]core.Size {
	live := make(map[int]core.Size, len(sizes))
	for i, s := range sizes {
		live[i] = s
	}
	return live
}

func applyEvents(live map[int]core.Size, events []workload.ChurnEvent) {
	for _, e := range events {
		if e.Op == workload.OpRemove {
			delete(live, e.ID)
		} else {
			live[e.ID] = e.Size
		}
	}
}

// preload opens every client's session.
func (seq *sessSeq) preload(p *plandProc, t *tally) {
	c := newConn()
	for _, sc := range seq.clients {
		status, raw, lat, err := call(c, http.MethodPost, p.base+"/v2/sessions", sc.create)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %.200s", status, raw)
		}
		var v *sessView
		if err == nil {
			v, err = checkView(raw, initialLive(sc.initial))
		}
		t.record("preload", lat, len(sc.create), len(raw), err)
		if err != nil {
			continue
		}
		sc.id = v.ID
		var comm core.Size
		for _, red := range v.Schema.Reducers {
			comm += red.Load
		}
		lb := a2a.LowerBounds(core.MustNewInputSet(sc.initial), seq.cfg.q)
		sc.cost = costs{}
		sc.cost.add(v.Schema.NumReducers(), lb.Reducers, comm, lb.Communication)
	}
}

type sessRun struct {
	seq  *sessSeq
	t    *tally
	done []int
	wall time.Duration
}

func (seq *sessSeq) run(p *plandProc, deadline time.Time) *sessRun {
	r := &sessRun{seq: seq, t: newTally()}
	type state struct {
		conn *http.Client
		live map[int]core.Size
	}
	states := make([]state, len(seq.clients))
	for c, sc := range seq.clients {
		states[c] = state{newConn(), initialLive(sc.initial)}
	}
	r.done, r.wall = closedLoop(len(seq.clients), deadline, func(c, i int) bool {
		sc, st := seq.clients[c], &states[c]
		if i >= len(sc.ops) || sc.id == "" {
			return false
		}
		op := &sc.ops[i]
		url := p.base + "/v2/sessions/" + sc.id
		if op.get {
			status, raw, lat, err := call(st.conn, http.MethodGet, url, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %.200s", status, raw)
			}
			if err == nil {
				_, err = checkView(raw, st.live)
			}
			r.t.record("session_get", lat, 0, len(raw), err)
			return true
		}
		events := sc.events[op.lo:op.hi]
		status, raw, lat, err := call(st.conn, http.MethodPatch, url, op.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, raw)
		}
		var resp *patchResp
		if err == nil {
			resp, err = checkPatch(raw, events)
		}
		r.t.record("delta", lat, len(op.body), len(raw), err)
		if err != nil {
			return false // the client's view of the session is lost
		}
		applyEvents(st.live, events)
		if resp.RebuildJobID == "" {
			return true
		}
		// The seed alone fixes when rebuilds happen: the client waits for
		// each one before its next PATCH.
		start := time.Now()
		err = awaitJob(st.conn, p.base+"/v2/jobs/"+resp.RebuildJobID)
		r.t.record("rebuild", time.Since(start), 0, 0, err)
		if err == nil {
			r.t.mu.Lock()
			r.t.rebuilds++
			r.t.mu.Unlock()
		}
		return err == nil
	})
	return r
}

// awaitJob polls a v2 job every half millisecond until it succeeds.
func awaitJob(c *http.Client, url string) error {
	for {
		status, raw, _, err := call(c, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("job poll status %d: %.200s", status, raw)
		}
		var j struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(raw, &j); err != nil {
			return fmt.Errorf("decoding job: %w", err)
		}
		switch j.State {
		case "succeeded":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("rebuild job %s: %.300s", j.State, raw)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func (r *sessRun) ops() int { return r.done[0] + r.done[1] }

// classes reports the latency of each session op class and of rebuilds.
func (r *sessRun) classes(m metrics) {
	m.set("pland.delta_p50_ms", "ms", r.t.p50("delta"))
	m.set("pland.delta_p99_ms", "ms", r.t.p99("delta"))
	m.set("pland.session_get_p50_ms", "ms", r.t.p50("session_get"))
	m.set("pland.rebuild_p50_ms", "ms", r.t.p50("rebuild"))
}

// costs sums the sessions' initial schemas.
func (seq *sessSeq) costs() costs {
	var c costs
	for _, sc := range seq.clients {
		c.red, c.lbRed = c.red+sc.cost.red, c.lbRed+sc.cost.lbRed
		c.comm, c.lbComm = c.comm+sc.cost.comm, c.lbComm+sc.cost.lbComm
	}
	return c
}

// traceJournal is a stream.Journal appending to a wal.Log the way pland's
// session journal does, with a span around every append.
type traceJournal struct {
	tr     *tracer
	log    *wal.Log
	sid    string
	op     int64
	parent int // the span the session is inside when it journals
}

func (j *traceJournal) Delta(rec stream.DeltaRecord) {
	j.tr.do("wal.append", j.op, j.parent, func(int) {
		j.log.Append(&wal.Record{Kind: wal.KindSessionDelta, SID: j.sid, Delta: &rec})
	})
}

func (j *traceJournal) Snapshot(st *stream.State) {
	j.tr.do("wal.append", j.op, j.parent, func(int) {
		j.log.Append(&wal.Record{Kind: wal.KindSessionSnapshot, SID: j.sid, State: st, FP: st.Fingerprint(), Meta: json.RawMessage(`{"timeout_ms":-1}`)})
	})
}

// trace replays the completed ops against in-process sessions that
// replan through an in-process planner and journal to a WAL under the
// session workload's fsync policy.
func (r *sessRun) trace(tr *tracer, deadline time.Time, workdir string, m metrics) error {
	pl := planner.New(planner.Config{})
	dir, err := os.MkdirTemp(workdir, "trace-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	policy, _ := wal.ParsePolicy(fsyncPolicy)
	log, err := wal.Open(dir, wal.Options{Fsync: policy})
	if err != nil {
		return err
	}
	defer log.Close()
	var (
		mu       sync.Mutex
		deltas   int
		moved    core.Size
		rebuilds int
		swaps    []float64
		firstErr error
	)
	var wg sync.WaitGroup
	for c, sc := range r.seq.clients {
		wg.Add(1)
		go func(c int, sc *sessClient) {
			defer wg.Done()
			ctx := context.Background()
			tj := &traceJournal{tr: tr, log: log, sid: fmt.Sprintf("trace-%d", c), op: -1, parent: -1}
			replan := func(ctx context.Context, sizes []core.Size, q core.Size) (*core.MappingSchema, error) {
				var res *planner.Result
				var err error
				tr.do("stream.replan", tj.op, tj.parent, func(int) {
					res, err = pl.Plan(ctx, planner.Request{Problem: core.ProblemA2A, Set: core.MustNewInputSet(sizes), Capacity: q, Budget: planner.Budget{Timeout: -1}})
				})
				if err != nil {
					return nil, err
				}
				return res.Schema, nil
			}
			fail := func(err error) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			sess, err := stream.NewSession(ctx, stream.Config{Capacity: r.seq.cfg.q, Initial: sc.initial, Replan: replan, Journal: tj, RebuildThreshold: r.seq.cfg.rebuild})
			if err != nil {
				fail(fmt.Errorf("traced session: %w", err))
				return
			}
			defer sess.Close()
			for i := 0; i < r.done[c] && time.Now().Before(deadline); i++ {
				op := &sc.ops[i]
				id := int64(c)<<32 | int64(i)
				tj.op = id
				if op.get {
					root := tr.begin("session_get", id, -1)
					tr.do("stream.snapshot", id, root, func(int) { sess.Snapshot() })
					tr.do("stream.state", id, root, func(int) { sess.State().Fingerprint() })
					tr.end(root, "")
					continue
				}
				root := tr.begin("delta", id, -1)
				var opMoved core.Size
				for _, e := range sc.events[op.lo:op.hi] {
					ds := tr.begin("stream.delta", id, root)
					tj.parent = ds
					var rep stream.DeltaReport
					var err error
					switch e.Op {
					case workload.OpAdd:
						_, rep, err = sess.Add(e.Size)
					case workload.OpRemove:
						rep, err = sess.Remove(e.ID)
					default:
						rep, err = sess.Resize(e.ID, e.Size)
					}
					tr.end(ds, "")
					if err != nil {
						tr.end(root, "")
						fail(fmt.Errorf("traced delta: %w", err))
						return
					}
					opMoved += rep.MovedBytes
				}
				tr.end(root, "")
				if sess.NeedsRebuild() {
					rs := tr.begin("stream.rebuild", id, -1)
					tj.parent = rs
					_, err := sess.Rebuild(ctx)
					tr.end(rs, "")
					if err != nil {
						fail(fmt.Errorf("traced rebuild: %w", err))
						return
					}
				}
				mu.Lock()
				deltas += op.hi - op.lo
				moved += opMoved
				mu.Unlock()
			}
		}(c, sc)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// A rebuild's swap is the rebuild minus its replan: the part that holds
	// the session lock. Replans outside a rebuild plan the initial sessions.
	replans := map[int]float64{}
	for _, s := range tr.spans {
		if s.Name == "stream.rebuild" && s.End >= 0 {
			replans[s.ID] = 0
		}
	}
	for _, s := range tr.spans {
		if _, ok := replans[s.Parent]; ok && s.Name == "stream.replan" {
			replans[s.Parent] += ms(s.dur())
		}
	}
	for _, s := range tr.spans {
		if s.Name == "stream.rebuild" && s.End >= 0 {
			rebuilds++
			swaps = append(swaps, ms(s.dur())-replans[s.ID])
		}
	}
	us := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1000
		}
		return out
	}
	// A delta's self time leaves out its WAL append, which wal.* reports.
	delta := us(tr.selfTimes("stream.delta"))
	appends := us(tr.durs("wal.append", ""))
	m.set("stream.delta_us", "us", quantile(delta, 0.5))
	m.set("stream.delta_p99_us", "us", quantile(delta, 0.99))
	m.set("stream.rebuild_ms", "ms", quantile(tr.durs("stream.rebuild", ""), 0.5))
	var replanMS []float64
	for _, v := range replans {
		replanMS = append(replanMS, v)
	}
	m.set("stream.replan_ms", "ms", quantile(replanMS, 0.5))
	m.set("stream.swap_ms", "ms", quantile(swaps, 0.5))
	m.set("stream.snapshot_ms", "ms", quantile(tr.durs("stream.snapshot", ""), 0.5))
	m.set("stream.rebuilds", "count", float64(rebuilds))
	m.set("stream.moved_kb_per_delta", "KiB", ratio(float64(moved)/1024, float64(deltas)))
	m.set("wal.append_us", "us", quantile(appends, 0.5))
	m.set("wal.append_p99_us", "us", quantile(appends, 0.99))
	m.set("pland.overhead_ms.delta", "ms", r.t.p50("delta")-quantile(tr.durs("delta", ""), 0.5))
	m.set("pland.overhead_ms.session_get", "ms", r.t.p50("session_get")-quantile(tr.durs("session_get", ""), 0.5))
	m.set("pland.resp_kb.session_get", "KiB", mean(r.t.bytes["resp.session_get"])/1024)
	return nil
}
