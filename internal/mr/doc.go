// Package mr is the reducer-indexed MapReduce core that executes the paper's
// mapping schemas: the exec layer's schema-driven jobs and the skew join's
// light-key job run on it.
//
// # Model
//
// In the paper a mapping schema fixes, before any data moves, the reducers
// each input is copied to. A Job therefore names its reducers by index and
// has no shuffle keys: its Route function turns each input record into the
// value to ship plus the list of reducers that receive a copy, and its Reduce
// function processes one reducer's copies.
//
//	Source → Route (calling goroutine) → per-reducer []Ref → worker pool → Reduce → Sink
//
// RunStream pulls records one at a time from a Source, so the whole input
// never has to be materialized, and appends one Ref (source index, value) per
// copy to its reducer's slice. Routing is sequential, so each reducer holds
// its copies in source order, which is their provenance order: output is
// deterministic without a sort. A fixed pool of Job.Workers goroutines then
// reduces the non-empty reducers and writes to the caller's Sink or into
// Result.Output. Run is RunStream over an in-memory slice with collected
// output. Cancelling the context stops the run between records and between
// reducers, and RunStream returns only after every goroutine it started has
// finished.
//
// # Accounting
//
// Each copy is charged CopyBytes: a reducer tag ("r" plus the decimal
// reducer index), the route's Header, and the value, which is what a wire
// format keyed by reducer would ship. The engine computes the size without
// building the frame. ReducerLoads and ShuffleBytes are the per-reducer and
// total sums, so they measure the paper's reducer load and communication cost
// byte-accurately. Job.ReducerCapacity fails a run whose reducer load exceeds
// it, and a route to a reducer outside the job fails with ErrBadRoute.
//
// # Spill to disk
//
// StreamOptions.MemoryBudget bounds the shuffle bytes held in memory across
// all reducers. When a copy pushes the run over budget, the receiving reducer
// writes its in-memory copies to a run file of uvarint-framed (source index,
// value) records in a private "mr-spill-*" directory under
// StreamOptions.SpillDir, and starts over empty. At reduce time the runs are
// read back in write order, followed by the in-memory remainder, which is the
// unbounded run's copy sequence: output is byte-identical. Spill volume is
// reported in Counters (SpillRuns, SpillPartitions, SpillBytes) and per run
// via the OnSpill hook. The directory is removed when the run ends, on every
// path: success, error, or cancellation.
package mr
