package mr

import "time"

// Counters aggregates the measurements of one job run. Every byte figure
// charges a copy its CopyBytes size, matching the paper's notion of
// communication cost: the total amount of data transmitted from the map
// phase to the reduce phase.
type Counters struct {
	// MapInputRecords is the number of input records routed.
	MapInputRecords int64
	// MapOutputRecords and MapOutputBytes describe the copies the routing
	// step produced.
	MapOutputRecords int64
	MapOutputBytes   int64
	// ShuffleRecords and ShuffleBytes describe what crossed the
	// map-to-reduce boundary; every copy does, so they equal the map output.
	// ShuffleBytes is the communication cost.
	ShuffleRecords int64
	ShuffleBytes   int64
	// ReduceInputKeys is the number of reducers that received input.
	ReduceInputKeys int64
	// ReduceOutputRecords and ReduceOutputBytes describe the reducer output.
	ReduceOutputRecords int64
	ReduceOutputBytes   int64
	// SpillRuns, SpillPartitions, and SpillBytes describe spill-to-disk
	// activity under a memory budget: how many run files were written, how
	// many distinct reducers spilled at least once, and the total file bytes
	// written. All three stay zero for unbounded runs.
	SpillRuns       int64
	SpillPartitions int64
	SpillBytes      int64
	// ReducerLoads holds the shuffle bytes received by each reducer.
	ReducerLoads []int64
	// MaxReducerLoad is the largest entry of ReducerLoads.
	MaxReducerLoad int64
	// MapWall and ReduceWall are the wall-clock durations of the phases.
	MapWall    time.Duration
	ReduceWall time.Duration
}

// Merge folds the counters of another, independently executed job into c.
// Record and byte figures add up, wall clocks add up (the merged walls are
// aggregate work time, not elapsed time when the jobs ran concurrently), and
// ReducerLoads are concatenated so per-reducer loads stay inspectable. The
// applications use it to report one counter set for a composite run (e.g. a
// light-key job plus one executor job per heavy key).
func (c *Counters) Merge(o *Counters) {
	c.MapInputRecords += o.MapInputRecords
	c.MapOutputRecords += o.MapOutputRecords
	c.MapOutputBytes += o.MapOutputBytes
	c.ShuffleRecords += o.ShuffleRecords
	c.ShuffleBytes += o.ShuffleBytes
	c.ReduceInputKeys += o.ReduceInputKeys
	c.ReduceOutputRecords += o.ReduceOutputRecords
	c.ReduceOutputBytes += o.ReduceOutputBytes
	c.SpillRuns += o.SpillRuns
	c.SpillPartitions += o.SpillPartitions
	c.SpillBytes += o.SpillBytes
	c.ReducerLoads = append(c.ReducerLoads, o.ReducerLoads...)
	if o.MaxReducerLoad > c.MaxReducerLoad {
		c.MaxReducerLoad = o.MaxReducerLoad
	}
	c.MapWall += o.MapWall
	c.ReduceWall += o.ReduceWall
}

// Result is the outcome of a job run: the emitted output records grouped by
// reducer, plus counters.
type Result struct {
	// Output holds the emitted records per reducer; it is nil when the run
	// wrote to a Sink.
	Output [][][]byte
	// Counters are the run's measurements.
	Counters Counters
}

// FlatOutput returns all output records, reducer by reducer.
func (r *Result) FlatOutput() [][]byte {
	var out [][]byte
	for _, part := range r.Output {
		out = append(out, part...)
	}
	return out
}
