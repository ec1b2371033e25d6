package mr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Run executes the job over in-memory input records and collects the output
// per reducer.
func Run(ctx context.Context, job *Job, inputs [][]byte) (*Result, error) {
	return RunStream(ctx, job, NewSliceSource(inputs), nil, StreamOptions{})
}

// RunStream executes the job in two phases. The map phase pulls records from
// src one at a time on the calling goroutine, routes each, and appends a Ref
// per copy to its reducer's slice, so every reducer holds its copies in
// source order. The reduce phase then runs a pool of job.Workers goroutines
// that take the non-empty reducers in turn and write their output to sink,
// or, when sink is nil, collect it per reducer into Result.Output.
//
// Cancelling ctx stops the run between records and between reducers.
// RunStream returns only after every goroutine it started has finished, so
// no Source.Next or Sink.Write call is in flight once it returns; spill
// files are removed before it returns, whatever the outcome.
func RunStream(ctx context.Context, job *Job, src Source, sink Sink, opts StreamOptions) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if src == nil {
		src = NewSliceSource(nil)
	}
	r := &run{
		job:  job,
		opts: opts,
		refs: make([][]Ref, job.NumReducers),
		mem:  make([]int64, job.NumReducers),
		runs: make([][]spillRun, job.NumReducers),
	}
	r.c.ReducerLoads = make([]int64, job.NumReducers)
	defer r.removeSpillDir()

	start := time.Now()
	endMap := opts.stage("map")
	err := r.mapPhase(ctx, src)
	endMap()
	if err != nil {
		return nil, err
	}
	mapDone := time.Now()
	endReduce := opts.stage("reduce")
	out, err := r.reducePhase(ctx, sink)
	endReduce()
	if err != nil {
		return nil, err
	}
	r.c.MapWall = mapDone.Sub(start)
	r.c.ReduceWall = time.Since(mapDone)
	r.c.MapOutputRecords = r.c.ShuffleRecords
	r.c.MapOutputBytes = r.c.ShuffleBytes
	for _, l := range r.c.ReducerLoads {
		r.c.MaxReducerLoad = max(r.c.MaxReducerLoad, l)
	}
	return &Result{Output: out, Counters: r.c}, nil
}

// run is the state of one RunStream call.
type run struct {
	job  *Job
	opts StreamOptions
	c    Counters

	refs    [][]Ref      // in-memory copies per reducer, in source order
	mem     []int64      // in-memory shuffle bytes per reducer
	memUsed int64        // in-memory shuffle bytes across reducers
	runs    [][]spillRun // spill runs per reducer, in write order

	spillDir string // created on the first spill
}

// mapPhase routes every source record to its reducers.
func (r *run) mapPhase(ctx context.Context, src Source) error {
	job := r.job
	for idx := 0; ; idx++ {
		rec, err := src.Next()
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("mr: reading input record %d: %w", idx, err)
		}
		r.c.MapInputRecords++
		rt, err := job.Route(idx, rec)
		if err != nil {
			return fmt.Errorf("mr: routing record %d (job %q): %w", idx, job.Name, err)
		}
		for _, p := range rt.Reducers {
			if p < 0 || p >= job.NumReducers {
				return fmt.Errorf("%w: record %d routed to reducer %d of %d (job %q)",
					ErrBadRoute, idx, p, job.NumReducers, job.Name)
			}
			size := CopyBytes(p, rt.Header, len(rt.Value))
			r.c.ShuffleRecords++
			r.c.ShuffleBytes += size
			r.c.ReducerLoads[p] += size
			if job.ReducerCapacity > 0 && r.c.ReducerLoads[p] > job.ReducerCapacity {
				return fmt.Errorf("%w: reducer %d holds %d bytes > capacity %d (job %q)",
					ErrOverCapacity, p, r.c.ReducerLoads[p], job.ReducerCapacity, job.Name)
			}
			r.refs[p] = append(r.refs[p], Ref{Index: idx, Value: rt.Value})
			if r.opts.MemoryBudget <= 0 {
				continue
			}
			r.mem[p] += size
			r.memUsed += size
			if r.memUsed > r.opts.MemoryBudget {
				if err := r.spill(p); err != nil {
					return err
				}
			}
		}
	}
}

// spill writes reducer p's in-memory copies to a new run file.
func (r *run) spill(p int) error {
	if r.spillDir == "" {
		dir, err := os.MkdirTemp(r.opts.SpillDir, "mr-spill-")
		if err != nil {
			return fmt.Errorf("mr: creating spill directory: %w", err)
		}
		r.spillDir = dir
	}
	sr, err := writeSpillRun(r.spillDir, p, len(r.runs[p]), r.refs[p])
	if err != nil {
		return err
	}
	if len(r.runs[p]) == 0 {
		r.c.SpillPartitions++
	}
	r.runs[p] = append(r.runs[p], sr)
	r.refs[p] = nil
	r.memUsed -= r.mem[p]
	r.mem[p] = 0
	r.c.SpillRuns++
	r.c.SpillBytes += sr.bytes
	if r.opts.OnSpill != nil {
		r.opts.OnSpill(p, sr.bytes)
	}
	return nil
}

// removeSpillDir deletes the run's spill directory, if one was created.
func (r *run) removeSpillDir() {
	if r.spillDir != "" {
		os.RemoveAll(r.spillDir)
	}
}

// copies returns reducer p's copies in source order: its spill runs in
// write order, then the in-memory remainder.
func (r *run) copies(p int) ([]Ref, error) {
	if len(r.runs[p]) == 0 {
		return r.refs[p], nil
	}
	var refs []Ref
	for _, sr := range r.runs[p] {
		var err error
		if refs, err = readSpillRun(sr, refs); err != nil {
			return nil, err
		}
	}
	return append(refs, r.refs[p]...), nil
}

// reducePhase reduces every non-empty reducer on a fixed worker pool.
func (r *run) reducePhase(parent context.Context, sink Sink) ([][][]byte, error) {
	job := r.job
	n := job.NumReducers
	workers := job.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var out [][][]byte
	if sink == nil {
		out = make([][][]byte, n)
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var (
		next                       atomic.Int64
		keys, outRecords, outBytes atomic.Int64
		sinkMu                     sync.Mutex
		errOnce                    sync.Once
		firstErr                   error
		wg                         sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	reduce := func(p int) error {
		refs, err := r.copies(p)
		if err != nil || len(refs) == 0 {
			return err
		}
		var recs [][]byte
		var bytes int64
		emit := func(rec []byte) {
			recs = append(recs, rec)
			bytes += int64(len(rec))
		}
		if err := job.Reduce(p, refs, emit); err != nil {
			return fmt.Errorf("mr: reduce reducer %d (job %q): %w", p, job.Name, err)
		}
		keys.Add(1)
		outRecords.Add(int64(len(recs)))
		outBytes.Add(bytes)
		if sink == nil {
			out[p] = recs
			return nil
		}
		sinkMu.Lock()
		defer sinkMu.Unlock()
		for _, rec := range recs {
			if err := sink.Write(p, rec); err != nil {
				return fmt.Errorf("mr: sink write (reducer %d): %w", p, err)
			}
		}
		return nil
	}
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				p := int(next.Add(1)) - 1
				if p >= n {
					return
				}
				if err := reduce(p); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	r.c.ReduceInputKeys = keys.Load()
	r.c.ReduceOutputRecords = outRecords.Load()
	r.c.ReduceOutputBytes = outBytes.Load()
	return out, nil
}
