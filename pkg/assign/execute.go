package assign

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/exec"
)

// Execution is the outcome of one Execute call: the planning result plus the
// audited run of the planned schema on the MapReduce engine.
type Execution struct {
	// Plan is the planning outcome the run was driven by.
	Plan *Result
	// Output holds every record the Pair logic emitted, in deterministic
	// partition order. It is nil when the output was streamed instead
	// (Each or Collect was given, or the run came from ExecuteStream).
	Output [][]byte
	// PairsProcessed is how many required pairs the reducers processed; the
	// conformance audit checks it is exactly the instance's pair count, each
	// pair at its owning reducer.
	PairsProcessed int64
	// Audited reports whether the conformance harness checked the run
	// (false only under NoAudit).
	Audited bool
	// ShuffleRecords and ShuffleBytes describe what crossed the
	// map-to-reduce boundary; ShuffleBytes is the realized communication
	// cost.
	ShuffleRecords int64
	ShuffleBytes   int64
	// ReducerLoads holds the shuffle bytes received per reducer, and
	// MaxReducerLoad the largest entry — the realized parallelism bound.
	ReducerLoads   []int64
	MaxReducerLoad int64
	// SpillRuns, SpillPartitions, and SpillBytes describe spill-to-disk
	// activity under MemoryBudget: run files written, distinct
	// partitions that spilled, and total file bytes. All zero for unbounded
	// runs.
	SpillRuns       int64
	SpillPartitions int64
	SpillBytes      int64
	// Elapsed is the wall-clock time of the whole call (planning plus
	// execution).
	Elapsed time.Duration
}

// Execute plans the instance and runs the planned schema on the streaming
// MapReduce engine using the shared process-wide planner: every record is
// replicated to the reducers its schema assignment names, the Pair logic
// runs exactly once per required pair at the pair's owning reducer, and the
// run is audited against the schema unless NoAudit is given. The instance
// must be concrete (Inputs, XYInputs, or Source) and Capacity and Pair are
// required. Cancelling the context stops the run promptly and cleans up
// any spill files.
func Execute(ctx context.Context, opts ...Option) (*Execution, error) {
	return Default.Execute(ctx, opts...)
}

// Execute plans and runs on this planner. See the package-level Execute.
func (pl *Planner) Execute(ctx context.Context, opts ...Option) (*Execution, error) {
	start := time.Now()
	r, plan, err := pl.planForExecute(ctx, opts)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(r.execRequest(ctx, plan, r.outputSink()))
	if err != nil {
		return nil, err
	}
	return newExecution(plan, res, start), nil
}

// planForExecute validates the Execute surface and runs the planning step.
func (pl *Planner) planForExecute(ctx context.Context, opts []Option) (*request, *Result, error) {
	r, err := build(opts)
	if err != nil {
		return nil, nil, err
	}
	if r.pair == nil {
		return nil, nil, ErrNoPair
	}
	if !r.hasData && r.src == nil {
		return nil, nil, fmt.Errorf("assign: Execute needs concrete payloads (use Inputs, XYInputs, or Source, not A2A/X2Y sizes)")
	}
	preq, err := r.plannerRequest()
	if err != nil {
		return nil, nil, err
	}
	plan, err := pl.plan(ctx, preq)
	if err != nil {
		return nil, nil, err
	}
	return r, plan, nil
}

// execRequest assembles the executor request of a planned run.
func (r *request) execRequest(ctx context.Context, plan *Result, sink func([]byte) error) exec.Request {
	name := r.name
	if name == "" {
		name = "assign-execute"
	}
	req := exec.Request{
		Ctx:          ctx,
		Name:         name,
		Schema:       plan.Schema,
		Inputs:       r.data,
		XInputs:      r.xData,
		YInputs:      r.yData,
		Pair:         r.pair,
		Workers:      r.workers,
		NoAudit:      r.noAudit,
		Sink:         sink,
		MemoryBudget: r.memBudget,
		SpillDir:     r.spillDir,
	}
	if r.src != nil {
		req.Inputs = nil
		req.Source = r.src
		req.InputSizes = make([]int, len(r.srcSizes))
		for i, s := range r.srcSizes {
			req.InputSizes[i] = int(s)
		}
	}
	return req
}

// outputSink folds the Each and Collect options into one executor sink, or
// nil when the output should be materialized in Execution.Output.
func (r *request) outputSink() func([]byte) error {
	if r.each == nil && r.collect == nil {
		return nil
	}
	return func(rec []byte) error {
		if r.collect != nil {
			*r.collect = append(*r.collect, rec)
		}
		if r.each != nil {
			return r.each(rec)
		}
		return nil
	}
}

// newExecution converts an executor result.
func newExecution(plan *Result, res *exec.Result, start time.Time) *Execution {
	return &Execution{
		Plan:            plan,
		Output:          res.Output,
		PairsProcessed:  res.PairsProcessed,
		Audited:         res.Audited,
		ShuffleRecords:  res.Counters.ShuffleRecords,
		ShuffleBytes:    res.Counters.ShuffleBytes,
		ReducerLoads:    res.Counters.ReducerLoads,
		MaxReducerLoad:  res.Counters.MaxReducerLoad,
		SpillRuns:       res.Counters.SpillRuns,
		SpillPartitions: res.Counters.SpillPartitions,
		SpillBytes:      res.Counters.SpillBytes,
		Elapsed:         time.Since(start),
	}
}

// StreamExecution is a running streamed execution: an iterator over the
// output records plus, once the stream is exhausted, the final Execution.
// Always call Close (or drain Next to io.EOF) — an abandoned iterator keeps
// the pipeline blocked until its context dies.
type StreamExecution struct {
	recs   chan []byte
	cancel context.CancelFunc
	done   chan struct{}
	exec   *Execution
	err    error
}

// Next returns the next output record. It returns io.EOF after the last
// record of a successful run, or the run's error. Records of one reduce
// partition arrive in deterministic order; partitions interleave.
func (s *StreamExecution) Next() ([]byte, error) {
	rec, ok := <-s.recs
	if ok {
		return rec, nil
	}
	<-s.done
	if s.err != nil {
		return nil, s.err
	}
	return nil, io.EOF
}

// Execution returns the final result (counters, audit verdict, spill
// figures), blocking until the run completes. After a failed run it returns
// the run's error.
func (s *StreamExecution) Execution() (*Execution, error) {
	<-s.done
	return s.exec, s.err
}

// Close cancels the run if it is still going, drains it, and releases its
// resources (spill files are removed by the pipeline itself). Close is safe
// after io.EOF and safe to call more than once.
func (s *StreamExecution) Close() error {
	s.cancel()
	for range s.recs {
		// Drain so the pipeline can unwind.
	}
	<-s.done
	return nil
}

// ExecuteStream is Execute with a streamed output: it plans synchronously —
// planning and validation errors return immediately — then runs the planned
// schema in the background and returns an iterator over the output records
// as reduce partitions complete. Combined with Source and MemoryBudget,
// neither input, shuffle, nor output of the run is ever fully materialized.
func ExecuteStream(ctx context.Context, opts ...Option) (*StreamExecution, error) {
	return Default.ExecuteStream(ctx, opts...)
}

// ExecuteStream plans and streams on this planner. See the package-level
// ExecuteStream.
func (pl *Planner) ExecuteStream(ctx context.Context, opts ...Option) (*StreamExecution, error) {
	start := time.Now()
	r, plan, err := pl.planForExecute(ctx, opts)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	s := &StreamExecution{
		recs:   make(chan []byte),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	tee := r.outputSink()
	sink := func(rec []byte) error {
		if tee != nil {
			if err := tee(rec); err != nil {
				return err
			}
		}
		select {
		case s.recs <- rec:
			return nil
		case <-runCtx.Done():
			return runCtx.Err()
		}
	}
	go func() {
		defer cancel()
		res, err := exec.Run(r.execRequest(runCtx, plan, sink))
		if err != nil {
			s.err = err
		} else {
			s.exec = newExecution(plan, res, start)
		}
		close(s.done)
		close(s.recs)
	}()
	return s, nil
}
