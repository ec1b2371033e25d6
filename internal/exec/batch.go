package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
)

// BatchOptions tunes RunBatch.
type BatchOptions struct {
	// Workers bounds how many jobs run concurrently; 0 means
	// min(len(requests), GOMAXPROCS).
	Workers int
}

// RunBatch executes many independent schema-driven jobs under a bounded
// worker pool — the shape of service-style traffic, and of applications that
// decompose into many small jobs. The returned slice is aligned with the
// requests: results[i] belongs to reqs[i] and is nil when that job failed.
// Per-job failures do not stop the other jobs; they are aggregated (with
// their job index and name) into the returned error. Cancelling the context
// stops dispatching new jobs, cancels the running ones mid-run (unless
// a job carries its own Ctx), and marks every undispatched job failed with
// the context's error.
func RunBatch(ctx context.Context, reqs []Request, opts BatchOptions) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	shared := sharedIndexes(reqs)

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := reqs[i]
				if r.Ctx == nil {
					// The batch context now cancels running jobs mid-run,
					// not just undispatched ones.
					r.Ctx = ctx
				}
				res, err := run(r, shared[i])
				if err != nil {
					errs[i] = fmt.Errorf("exec: batch job %d (%q): %w", i, reqs[i].Name, err)
					continue
				}
				results[i] = res
			}
		}()
	}
dispatch:
	for i := range reqs {
		select {
		case idx <- i:
		case <-ctx.Done():
			for j := i; j < len(reqs); j++ {
				errs[j] = fmt.Errorf("exec: batch job %d (%q) not started: %w", j, reqs[j].Name, ctx.Err())
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}

// indexKey identifies a reusable schema index: the schema identity plus the
// instance shape the assignments were derived for.
type indexKey struct {
	schema           *core.MappingSchema
	numA, numX, numY int
}

// sharedIndexes builds, once per (schema, shape) that more than one job
// uses, the schema index those jobs share — service-style batches typically
// run many jobs against one planned schema, and rebuilding the per-input
// assignment rows per job dominated small-job batch profiles. Jobs with a
// unique schema keep compiling their index inside the worker pool, so
// all-distinct batches lose no parallelism. The result is aligned with
// reqs; entries are nil for jobs that compile their own index (unique
// schema, no schema, bad ID ranges, ...) and compile reports any error with
// the job name attached.
func sharedIndexes(reqs []Request) []*schemaIndex {
	keys := make([]indexKey, len(reqs))
	uses := make(map[indexKey]int)
	for i := range reqs {
		schema := reqs[i].schema()
		if schema == nil {
			continue
		}
		switch schema.Problem {
		case core.ProblemA2A:
			keys[i] = indexKey{schema: schema, numA: len(reqs[i].Inputs)}
		case core.ProblemX2Y:
			keys[i] = indexKey{schema: schema, numX: len(reqs[i].XInputs), numY: len(reqs[i].YInputs)}
		default:
			continue
		}
		uses[keys[i]]++
	}
	built := make(map[indexKey]*schemaIndex)
	out := make([]*schemaIndex, len(reqs))
	for i, key := range keys {
		if key.schema == nil || uses[key] < 2 {
			continue
		}
		sh, ok := built[key]
		if !ok {
			var err error
			if key.schema.Problem == core.ProblemA2A {
				sh, err = newSchemaIndexA2A(key.schema, key.numA)
			} else {
				sh, err = newSchemaIndexX2Y(key.schema, key.numX, key.numY)
			}
			if err != nil {
				sh = nil
			}
			built[key] = sh
		}
		out[i] = sh
	}
	return out
}
