package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/planner"
)

// Record is one input as the PairFunc sees it: its ID within its input set
// (the A2A set, or the X or Y side) and its raw bytes.
type Record struct {
	ID   int
	Data []byte
}

// PairFunc is the user logic of a schema-driven job. It is invoked exactly
// once per required pair, at the pair's owning reducer. For A2A jobs a and b
// are two inputs of the set with a.ID < b.ID; for X2Y jobs a is the X-side
// input and b the Y-side input. Emitted records become the job output.
type PairFunc func(a, b Record, emit func([]byte)) error

// Request describes one schema-driven execution.
type Request struct {
	// Ctx, when non-nil, carries the request's obs span so compile and audit
	// stage timings land in the request trace, and cancels the run: the
	// engine checks it between records and between reducers, so a cancelled
	// context stops the run mid-phase and cleans up any spill files.
	Ctx context.Context
	// Name labels the job in errors and results.
	Name string
	// Schema is the mapping schema to execute. When nil, Plan's schema is
	// used, so a planner result can be handed straight to the executor.
	Schema *core.MappingSchema
	// Plan optionally carries the planner result the schema came from.
	Plan *planner.Result
	// Inputs holds the A2A input data, indexed by input ID.
	Inputs [][]byte
	// XInputs and YInputs hold the X2Y input data per side, indexed by ID.
	XInputs, YInputs [][]byte
	// Source, when non-nil, streams the A2A input records instead of Inputs:
	// record i of the stream is input ID i, and InputSizes must declare the
	// byte size of every record (the planner's declared sizes) so routing
	// loads are known up front. A record whose actual size differs from its
	// declared size fails the run. Streaming input is A2A-only. Cancelling
	// Ctx ends the run even while a Next call is blocked: Run returns, and
	// the blocked call's result is dropped when it comes back.
	Source mr.Source
	// InputSizes declares the record sizes of Source, indexed by input ID.
	InputSizes []int
	// Sink, when non-nil, receives output records as reducers complete
	// instead of materializing Result.Output. Records of one reducer arrive
	// in deterministic order; reducers interleave. Sink calls are
	// serialized, and none is in flight once Run returns. A Sink error
	// fails the run.
	Sink func(rec []byte) error
	// MemoryBudget, when positive, bounds the in-memory shuffle bytes of the
	// run; over-budget partitions spill run files to SpillDir (the OS
	// temp dir when empty) and merge them back at reduce time. Spill volume
	// is reported in Counters and the pland_exec_spill_* metrics.
	MemoryBudget int64
	// SpillDir is where spill run files go; "" means the OS temp dir.
	SpillDir string
	// Pair is the per-pair user logic; it is required.
	Pair PairFunc
	// Workers is the size of the reduce worker pool; 0 means GOMAXPROCS.
	Workers int
	// NoAudit skips the conformance harness. The audit costs one trace entry
	// per required pair, so very large instances whose schemas are already
	// trusted can opt out.
	NoAudit bool
}

// Result is the outcome of one schema-driven execution.
type Result struct {
	// Output holds all records the PairFunc emitted, in deterministic
	// partition order.
	Output [][]byte
	// Counters are the engine's measurements.
	Counters mr.Counters
	// Schema is the schema that drove the run.
	Schema *core.MappingSchema
	// PairsProcessed is how many required pairs the reducers processed.
	PairsProcessed int64
	// Audited reports whether the conformance harness checked the run.
	Audited bool
}

// Request validation errors.
var (
	ErrNoSchema   = errors.New("exec: request has no schema")
	ErrNoPairFunc = errors.New("exec: request has no pair function")
	ErrBadInputs  = errors.New("exec: request inputs do not match the schema's problem")
)

// schema resolves the request's schema.
func (r *Request) schema() *core.MappingSchema {
	if r.Schema != nil {
		return r.Schema
	}
	if r.Plan != nil {
		return r.Plan.Schema
	}
	return nil
}

// Run compiles the request's schema into an mr.Job, executes it, and — unless
// NoAudit is set — audits the run against the schema. See the package
// documentation for the compilation contract.
func Run(req Request) (*Result, error) {
	return run(req, nil)
}

// run is Run with an optional pre-built schema index (RunBatch hoists index
// construction for jobs that share one schema); a nil or mismatched index is
// ignored and compiled per call.
func run(req Request, shared *schemaIndex) (*Result, error) {
	sp := obs.SpanFrom(req.Ctx)
	endCompile := sp.Stage("exec_compile")
	c, err := compile(req, shared)
	if err != nil {
		endCompile()
		obsRunsError.Inc()
		return nil, err
	}
	if err := c.auditor.PreCheck(); err != nil {
		endCompile()
		obsRunsAuditFailed.Inc()
		countViolations(err)
		return nil, fmt.Errorf("exec: schema for job %q fails conformance: %w", req.Name, err)
	}
	endCompile()
	res := &Result{Schema: c.schema}
	if c.schema.NumReducers() == 0 {
		// No reducers and PreCheck passed: there is no required pair.
		obsRunsOK.Inc()
		return res, nil
	}
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	src := mr.Source(mr.NewSliceSource(c.inputs()))
	if req.Source != nil {
		src = newStreamSource(ctx, req.Source, req.InputSizes, req.Name)
	}
	var sink mr.Sink
	if req.Sink != nil {
		sink = mr.SinkFunc(func(_ int, rec []byte) error { return req.Sink(rec) })
	}
	opts := mr.StreamOptions{
		MemoryBudget: req.MemoryBudget,
		SpillDir:     req.SpillDir,
		OnSpill: func(partition int, runBytes int64) {
			// A spill is an instant event in the trace, a counter in /metrics.
			sp.Stage("spill")()
			obsSpillRuns.Inc()
			obsSpillBytes.Add(uint64(runBytes))
		},
		OnStage: func(stage string) func() { return sp.Stage("exec_" + stage) },
	}
	endStream := sp.Stage("exec_stream")
	obsPipelineDepth.Inc()
	runRes, err := mr.RunStream(ctx, c.job(), src, sink, opts)
	obsPipelineDepth.Dec()
	endStream()
	if err != nil {
		obsRunsError.Inc()
		return nil, fmt.Errorf("exec: running job %q: %w", req.Name, err)
	}
	obsSpillPartitions.Add(uint64(runRes.Counters.SpillPartitions))
	if req.Sink == nil {
		res.Output = runRes.FlatOutput()
	}
	res.Counters = runRes.Counters
	res.PairsProcessed = c.trace.Pairs()
	obsPairs.Add(uint64(res.PairsProcessed))
	if !req.NoAudit {
		endAudit := sp.Stage("audit")
		verifyStart := time.Now()
		err := c.auditor.Check(c.trace, &runRes.Counters)
		obsVerifySeconds.ObserveSince(verifyStart)
		endAudit()
		if err != nil {
			obsRunsAuditFailed.Inc()
			countViolations(err)
			return res, fmt.Errorf("exec: job %q failed the conformance audit: %w", req.Name, err)
		}
		res.Audited = true
	}
	obsRunsOK.Inc()
	return res, nil
}

// compilation holds everything Run derives from a request before executing.
type compilation struct {
	req     Request
	schema  *core.MappingSchema
	idx     *schemaIndex
	auditor *Auditor
	trace   *Trace
	// expectedLoads is the byte image of the schema's routing per reducer.
	expectedLoads []int64
}

// compile validates the request and derives the schema index (or adopts the
// shared one when it matches this schema and shape), the expected loads, and
// the auditor.
func compile(req Request, shared *schemaIndex) (*compilation, error) {
	schema := req.schema()
	if schema == nil {
		return nil, fmt.Errorf("%w (job %q)", ErrNoSchema, req.Name)
	}
	if req.Pair == nil {
		return nil, fmt.Errorf("%w (job %q)", ErrNoPairFunc, req.Name)
	}
	c := &compilation{req: req, schema: schema}
	var err error
	switch schema.Problem {
	case core.ProblemA2A:
		numA := len(req.Inputs)
		if req.Source != nil {
			if req.Inputs != nil {
				return nil, fmt.Errorf("%w: Source and Inputs are mutually exclusive (job %q)", ErrBadInputs, req.Name)
			}
			if len(req.InputSizes) == 0 {
				return nil, fmt.Errorf("%w: Source requires InputSizes (job %q)", ErrBadInputs, req.Name)
			}
			numA = len(req.InputSizes)
		}
		if numA == 0 || req.XInputs != nil || req.YInputs != nil {
			return nil, fmt.Errorf("%w: A2A jobs take Inputs only (job %q)", ErrBadInputs, req.Name)
		}
		if shared.matches(schema, numA, 0, 0) {
			c.idx = shared
		} else {
			c.idx, err = newSchemaIndexA2A(schema, numA)
		}
		c.trace = newTriTrace(numA)
	case core.ProblemX2Y:
		if req.Source != nil {
			return nil, fmt.Errorf("%w: streaming input (Source) supports A2A jobs only (job %q)", ErrBadInputs, req.Name)
		}
		if len(req.XInputs) == 0 || len(req.YInputs) == 0 || req.Inputs != nil {
			return nil, fmt.Errorf("%w: X2Y jobs take XInputs and YInputs (job %q)", ErrBadInputs, req.Name)
		}
		if shared.matches(schema, 0, len(req.XInputs), len(req.YInputs)) {
			c.idx = shared
		} else {
			c.idx, err = newSchemaIndexX2Y(schema, len(req.XInputs), len(req.YInputs))
		}
		c.trace = newDenseTrace(len(req.XInputs), len(req.YInputs))
	default:
		return nil, fmt.Errorf("exec: unknown problem %v (job %q)", schema.Problem, req.Name)
	}
	if err != nil {
		return nil, err
	}
	c.computeExpectedLoads()
	c.auditor = &Auditor{idx: c.idx, expectedLoads: c.expectedLoads}
	return c, nil
}

// headerBytes is the size of the side/ID header ("a|<id>|", "x|<id>|" or
// "y|<id>|") each shipped copy of input id is charged for.
func headerBytes(id int) int {
	var digits [20]byte
	return 3 + len(strconv.AppendInt(digits[:0], int64(id), 10))
}

// computeExpectedLoads derives, per reducer, the exact engine byte load the
// compiled assignments will produce: mr.CopyBytes of every assigned copy.
// Streaming requests use the declared InputSizes in place of the
// materialized data.
func (c *compilation) computeExpectedLoads() {
	loads := make([]int64, c.schema.NumReducers())
	add := func(assign [][]int, dataLen func(id int) int) {
		for id, rs := range assign {
			for _, r := range rs {
				loads[r] += mr.CopyBytes(r, headerBytes(id), dataLen(id))
			}
		}
	}
	switch {
	case c.schema.Problem == core.ProblemX2Y:
		add(c.idx.xAssign, func(id int) int { return len(c.req.XInputs[id]) })
		add(c.idx.yAssign, func(id int) int { return len(c.req.YInputs[id]) })
	case c.req.Source != nil:
		add(c.idx.aAssign, func(id int) int { return c.req.InputSizes[id] })
	default:
		add(c.idx.aAssign, func(id int) int { return len(c.req.Inputs[id]) })
	}
	c.expectedLoads = loads
}

// job assembles the engine job: schema routing, owner-elected pair
// reduction, and the engine-level capacity bound derived from the compiled
// routing.
func (c *compilation) job() *mr.Job {
	var capacity int64
	for _, l := range c.expectedLoads {
		capacity = max(capacity, l)
	}
	return &mr.Job{
		Name:            c.req.Name,
		NumReducers:     c.schema.NumReducers(),
		Route:           c.route,
		Reduce:          c.reduce,
		ReducerCapacity: capacity,
		Workers:         c.req.Workers,
	}
}

// inputs returns the materialized engine records: the A2A inputs, or the X
// side followed by the Y side.
func (c *compilation) inputs() [][]byte {
	if c.schema.Problem == core.ProblemA2A {
		return c.req.Inputs
	}
	return append(append(make([][]byte, 0, len(c.req.XInputs)+len(c.req.YInputs)), c.req.XInputs...), c.req.YInputs...)
}

// side maps an engine record index to its input ID and whether it is a
// Y-side input: X2Y records list the X side first, then the Y side.
func (c *compilation) side(idx int) (id int, isY bool) {
	if numX := len(c.idx.xAssign); c.schema.Problem == core.ProblemX2Y && idx >= numX {
		return idx - numX, true
	}
	return idx, false
}

// route replicates record idx to the reducers its schema assignment names.
func (c *compilation) route(idx int, rec []byte) (mr.Route, error) {
	id, isY := c.side(idx)
	assign := c.idx.aAssign
	switch {
	case isY:
		assign = c.idx.yAssign
	case c.schema.Problem == core.ProblemX2Y:
		assign = c.idx.xAssign
	}
	return mr.Route{Value: rec, Header: headerBytes(id), Reducers: assign[id]}, nil
}

// reduce elects this reducer's owned pairs among the records it received,
// logs them into the trace, and applies the user PairFunc.
func (c *compilation) reduce(self int, refs []mr.Ref, emit func([]byte)) error {
	// Copies arrive in source order: ascending IDs, the X side before the Y
	// side. A corrupted schema can list an input twice in one reducer; the
	// repeated copy is dropped so it cannot double-process pairs (duplicate
	// processing is the audit's signal for a pair covered at two owners, not
	// for a doubled assignment).
	var aRecs, bRecs []Record // A2A uses aRecs only; X2Y splits by side
	for i, ref := range refs {
		if i > 0 && ref.Index == refs[i-1].Index {
			continue
		}
		id, isY := c.side(ref.Index)
		if isY {
			bRecs = append(bRecs, Record{ID: id, Data: ref.Value})
		} else {
			aRecs = append(aRecs, Record{ID: id, Data: ref.Value})
		}
	}
	if c.schema.Problem == core.ProblemA2A {
		for i, a := range aRecs {
			for _, b := range aRecs[i+1:] {
				if c.auditor.Owner(a.ID, b.ID) != self {
					continue
				}
				c.trace.Record(self, a.ID, b.ID)
				if err := c.req.Pair(a, b, emit); err != nil {
					return fmt.Errorf("exec: pair (%d,%d): %w", a.ID, b.ID, err)
				}
			}
		}
		return nil
	}
	for _, x := range aRecs {
		for _, y := range bRecs {
			if c.auditor.Owner(x.ID, y.ID) != self {
				continue
			}
			c.trace.Record(self, x.ID, y.ID)
			if err := c.req.Pair(x, y, emit); err != nil {
				return fmt.Errorf("exec: pair (x=%d,y=%d): %w", x.ID, y.ID, err)
			}
		}
	}
	return nil
}

// streamSource feeds the request's Source to the engine and holds it to the
// declared sizes: the schema and its audit were planned for them, so a
// record that contradicts them fails the run. A helper goroutine calls the
// caller's Next, so a cancelled run ends even while that call is blocked;
// the helper exits once the call comes back.
type streamSource struct {
	ctx   context.Context
	recs  <-chan fetched
	sizes []int
	name  string
	i     int
}

// fetched is the outcome of one caller Next call.
type fetched struct {
	rec []byte
	err error
}

// newStreamSource starts the helper goroutine; it stops when ctx ends.
func newStreamSource(ctx context.Context, src mr.Source, sizes []int, name string) *streamSource {
	// Read a few records ahead so the engine seldom waits on the hand-off.
	recs := make(chan fetched, 64)
	go func() {
		for {
			rec, err := src.Next()
			select {
			case recs <- fetched{rec, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return &streamSource{ctx: ctx, recs: recs, sizes: sizes, name: name}
}

// Next implements mr.Source.
func (s *streamSource) Next() ([]byte, error) {
	var f fetched
	select {
	case f = <-s.recs:
	case <-s.ctx.Done():
		return nil, s.ctx.Err()
	}
	if f.err != nil {
		if errors.Is(f.err, io.EOF) && s.i != len(s.sizes) {
			return nil, fmt.Errorf("exec: source for job %q ended after %d of %d declared records", s.name, s.i, len(s.sizes))
		}
		return nil, f.err
	}
	if s.i >= len(s.sizes) {
		return nil, fmt.Errorf("exec: source for job %q produced more than the %d declared records", s.name, len(s.sizes))
	}
	if len(f.rec) != s.sizes[s.i] {
		return nil, fmt.Errorf("exec: record %d of job %q is %d bytes, declared %d", s.i, s.name, len(f.rec), s.sizes[s.i])
	}
	s.i++
	return f.rec, nil
}
