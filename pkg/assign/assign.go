package assign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/planner"
)

// Option configures one Plan or Execute call.
type Option func(*request)

// request accumulates the options of one call.
type request struct {
	name       string
	problem    Problem
	problemSet bool

	// Abstract instances (Plan): input sizes only.
	sizes, xSizes, ySizes []Size
	// Concrete instances (Execute, or Plan deriving sizes from payloads).
	data, xData, yData [][]byte
	hasData            bool

	capacity Size

	timeout        time.Duration
	timeoutSet     bool
	noCache        bool
	exactMaxInputs int
	exactMaxNodes  int
	exactSet       bool

	pair    PairFunc
	workers int
	noAudit bool

	// Streaming surface (see Source, Each, Collect, MemoryBudget, SpillDir).
	src       RecordSource
	srcSizes  []Size
	each      func(rec []byte) error
	collect   *[][]byte
	memBudget int64
	spillDir  string

	// Session-only options (see session.go).
	migrationBudget  Size
	rebuildThreshold float64
	headroom         Size
	manualRebuild    bool
	journal          SessionJournal

	errs []error
}

func (r *request) fail(err error) { r.errs = append(r.errs, err) }

func (r *request) setProblem(p Problem) {
	if r.problemSet && r.problem != p {
		r.fail(fmt.Errorf("assign: conflicting options: instance given as both %v and %v", r.problem, p))
		return
	}
	r.problem, r.problemSet = p, true
}

// A2A describes an all-to-all instance by its input sizes: every pair of
// inputs must meet at some reducer.
func A2A(sizes []Size) Option {
	return func(r *request) {
		r.setProblem(ProblemA2A)
		r.sizes = sizes
	}
}

// X2Y describes an X-to-Y instance by its two sides' input sizes: every
// cross pair of one X input and one Y input must meet at some reducer.
func X2Y(xSizes, ySizes []Size) Option {
	return func(r *request) {
		r.setProblem(ProblemX2Y)
		r.xSizes, r.ySizes = xSizes, ySizes
	}
}

// Inputs describes a concrete all-to-all instance by its payloads; input
// sizes are the payload byte lengths, so the planned capacity bound is about
// the very bytes Execute shuffles. Plan accepts it too, planning over the
// derived sizes.
func Inputs(payloads [][]byte) Option {
	return func(r *request) {
		r.setProblem(ProblemA2A)
		r.data, r.hasData = payloads, true
	}
}

// XYInputs describes a concrete X-to-Y instance by its two sides' payloads.
func XYInputs(x, y [][]byte) Option {
	return func(r *request) {
		r.setProblem(ProblemX2Y)
		r.xData, r.yData, r.hasData = x, y, true
	}
}

// Source describes a concrete all-to-all instance as a record stream plus
// its declared sizes: record i of the stream is input i and must be exactly
// sizes[i] bytes (the planner shards by declared size, so a mismatch fails
// the run). Unlike Inputs, the records are pulled through the pipeline one
// at a time and never materialized as a whole — combined with MemoryBudget
// this executes instances far larger than memory. Streaming input is
// A2A-only.
func Source(src RecordSource, sizes []Size) Option {
	return func(r *request) {
		r.setProblem(ProblemA2A)
		r.src, r.srcSizes = src, sizes
	}
}

// Each streams Execute's output: fn is called once per emitted record as
// reduce partitions complete, instead of materializing Execution.Output.
// Records of one partition arrive in deterministic order; partitions
// interleave. An error from fn fails the run.
func Each(fn func(rec []byte) error) Option {
	return func(r *request) { r.each = fn }
}

// Collect appends Execute's output records to *dst as they are produced —
// the streaming counterpart of reading Execution.Output, composable with
// Each and ExecuteStream.
func Collect(dst *[][]byte) Option {
	return func(r *request) { r.collect = dst }
}

// MemoryBudget bounds the in-memory shuffle bytes of Execute's pipeline.
// Partitions over budget spill run files to the spill directory and
// merge them back at reduce time; output is unchanged. Spill volume is
// reported in Execution.Spill* and the pland_exec_spill_* metrics. Zero (the
// default) means unbounded.
func MemoryBudget(bytes int64) Option {
	return func(r *request) { r.memBudget = bytes }
}

// SpillDir sets where over-budget partitions spill their run files; ""
// (the default) uses the OS temp dir. Each run keeps its files in a private
// mr-spill-* subdirectory, removed when the run ends.
func SpillDir(dir string) Option {
	return func(r *request) { r.spillDir = dir }
}

// Capacity sets the reducer capacity q. It is required and must be positive.
func Capacity(q Size) Option {
	return func(r *request) { r.capacity = q }
}

// Timeout bounds the planning portfolio race. The baseline constructive
// solver is always awaited, so a tight timeout never loses the paper's
// guarantees — it only drops slower portfolio members. Zero (or omitting
// the option) uses the default budget; a negative duration awaits every
// member, making the race deterministic (see Deterministic).
func Timeout(d time.Duration) Option {
	return func(r *request) { r.timeout, r.timeoutSet = d, true }
}

// Deterministic awaits every portfolio member (each is individually
// bounded), so the outcome does not depend on wall-clock scheduling.
func Deterministic() Option { return Timeout(-1) }

// NoCache skips the canonicalization cache for this call. The instance is
// still canonicalized, so the result is identical to the cached path; use it
// when this call's budget must be honored exactly rather than served from a
// plan solved under an earlier request's budget.
func NoCache() Option {
	return func(r *request) { r.noCache = true }
}

// ExactBudget tunes the exact branch-and-bound portfolio members: the
// largest instance they attempt and their search-node cap. maxInputs < 0
// disables them; zeros keep the defaults.
func ExactBudget(maxInputs, maxNodes int) Option {
	return func(r *request) {
		r.exactMaxInputs, r.exactMaxNodes, r.exactSet = maxInputs, maxNodes, true
	}
}

// Pair supplies Execute's per-pair user logic; Execute requires it. Records
// emitted by the logic become the execution output.
func Pair(fn PairFunc) Option {
	return func(r *request) { r.pair = fn }
}

// Workers sets the size of Execute's reduce worker pool; 0 (the default)
// means GOMAXPROCS.
func Workers(n int) Option {
	return func(r *request) { r.workers = n }
}

// NoAudit skips Execute's conformance audit. The audit costs one trace entry
// per required pair, so very large runs of already-trusted schemas can opt
// out; Execution.Audited reports false.
func NoAudit() Option {
	return func(r *request) { r.noAudit = true }
}

// Named labels the call in errors and engine accounting.
func Named(name string) Option {
	return func(r *request) { r.name = name }
}

// Result is the outcome of one Plan call.
type Result struct {
	// Schema is the winning mapping schema, expressed over the instance's
	// original input IDs. It is owned by the caller.
	Schema *MappingSchema
	// Cost prices the schema.
	Cost Cost
	// Winner names the portfolio member that produced the schema. The set of
	// member names is not part of the compatibility contract.
	Winner string
	// LowerBoundReducers is the instance's proved reducer lower bound, and
	// Gap is Schema reducers minus that bound: 0 means provably optimal.
	LowerBoundReducers int
	Gap                int
	// Candidates is how many portfolio members finished within the budget.
	Candidates int
	// CacheHit reports whether the plan was served from the cache, and
	// SharedFlight whether it piggybacked on a concurrent identical solve.
	CacheHit     bool
	SharedFlight bool
	// Elapsed is the wall-clock planning time of this call.
	Elapsed time.Duration
}

// ErrNoInstance is returned when a call names no instance (none of A2A,
// X2Y, Inputs, XYInputs was given).
var ErrNoInstance = errors.New("assign: no instance given (use A2A, X2Y, Inputs, or XYInputs)")

// ErrNoPair is returned by Execute when no Pair logic was given.
var ErrNoPair = errors.New("assign: Execute requires Pair logic")

// build applies the options and validates the shared (Plan ∩ Execute)
// surface.
func build(opts []Option) (*request, error) {
	r := &request{}
	for _, o := range opts {
		o(r)
	}
	if len(r.errs) > 0 {
		return nil, errors.Join(r.errs...)
	}
	if !r.problemSet {
		return nil, ErrNoInstance
	}
	if r.src != nil && r.hasData {
		return nil, errors.New("assign: Source and Inputs are mutually exclusive")
	}
	if r.capacity <= 0 {
		return nil, fmt.Errorf("assign: capacity must be positive, got %d (use Capacity)", r.capacity)
	}
	return r, nil
}

// sizesOf derives an input set from payloads.
func sizesOf(field string, payloads [][]byte) (*InputSet, error) {
	sizes := make([]Size, len(payloads))
	for i, p := range payloads {
		sizes[i] = Size(len(p))
	}
	set, err := NewInputSet(sizes)
	if err != nil {
		return nil, fmt.Errorf("assign: %s: %w", field, err)
	}
	return set, nil
}

// plannerRequest translates the accumulated options into the internal
// planner's request.
func (r *request) plannerRequest() (planner.Request, error) {
	req := planner.Request{
		Problem:  r.problem,
		Capacity: r.capacity,
		NoCache:  r.noCache,
	}
	if r.timeoutSet {
		req.Budget.Timeout = r.timeout
	}
	if r.exactSet {
		req.Budget.ExactMaxInputs = r.exactMaxInputs
		req.Budget.ExactMaxNodes = r.exactMaxNodes
	}
	var err error
	switch r.problem {
	case ProblemA2A:
		if r.src != nil {
			if req.Set, err = NewInputSet(r.srcSizes); err != nil {
				err = fmt.Errorf("assign: source sizes: %w", err)
			}
		} else if r.hasData {
			req.Set, err = sizesOf("inputs", r.data)
		} else if req.Set, err = NewInputSet(r.sizes); err != nil {
			err = fmt.Errorf("assign: sizes: %w", err)
		}
	case ProblemX2Y:
		if r.hasData {
			if req.X, err = sizesOf("x inputs", r.xData); err == nil {
				req.Y, err = sizesOf("y inputs", r.yData)
			}
		} else {
			if req.X, err = NewInputSet(r.xSizes); err != nil {
				err = fmt.Errorf("assign: x sizes: %w", err)
			} else if req.Y, err = NewInputSet(r.ySizes); err != nil {
				err = fmt.Errorf("assign: y sizes: %w", err)
			}
		}
	}
	if err != nil {
		return req, err
	}
	return req, nil
}

// Plan plans a mapping schema for the instance described by the options,
// using the shared process-wide planner. The instance (A2A, X2Y, Inputs, or
// XYInputs) and Capacity are required; everything else has defaults.
func Plan(ctx context.Context, opts ...Option) (*Result, error) {
	return Default.Plan(ctx, opts...)
}

// Plan plans on this planner. See the package-level Plan.
func (pl *Planner) Plan(ctx context.Context, opts ...Option) (*Result, error) {
	r, err := build(opts)
	if err != nil {
		return nil, err
	}
	preq, err := r.plannerRequest()
	if err != nil {
		return nil, err
	}
	return pl.plan(ctx, preq)
}

// plan runs a prepared planner request and converts the result.
func (pl *Planner) plan(ctx context.Context, preq planner.Request) (*Result, error) {
	res, err := pl.p.Plan(ctx, preq)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schema:             res.Schema,
		Cost:               res.Cost,
		Winner:             res.Winner,
		LowerBoundReducers: res.LowerBoundReducers,
		Gap:                res.Gap,
		Candidates:         res.Candidates,
		CacheHit:           res.CacheHit,
		SharedFlight:       res.SharedFlight,
		Elapsed:            res.Elapsed,
	}, nil
}
