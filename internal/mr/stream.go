package mr

import "io"

// Source yields the input records of a job one at a time, so a run never
// needs the whole input materialized. Next returns the next record, or
// io.EOF after the last one. The engine calls Next from a single goroutine
// and never after RunStream returns.
type Source interface {
	Next() ([]byte, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() ([]byte, error)

// Next implements Source.
func (f SourceFunc) Next() ([]byte, error) { return f() }

// SliceSource streams an in-memory record slice.
type SliceSource struct {
	recs [][]byte
	i    int
}

// NewSliceSource returns a Source over the given records.
func NewSliceSource(recs [][]byte) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() ([]byte, error) {
	if s.i >= len(s.recs) {
		return nil, io.EOF
	}
	rec := s.recs[s.i]
	s.i++
	return rec, nil
}

// Sink receives the output records of a run as reducers finish, tagged with
// the reducer that emitted them. Records of one reducer arrive in its
// emission order; reducers interleave as they complete. The engine
// serializes Write calls, so implementations need no locking, and never
// calls Write after RunStream returns. A Write error fails the run.
type Sink interface {
	Write(partition int, rec []byte) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(partition int, rec []byte) error

// Write implements Sink.
func (f SinkFunc) Write(partition int, rec []byte) error { return f(partition, rec) }

// StreamOptions tunes one RunStream call.
type StreamOptions struct {
	// MemoryBudget bounds the shuffle bytes (CopyBytes units) the run holds
	// in memory across all reducers. When a copy pushes the run over budget,
	// the receiving reducer writes its in-memory copies to a run file and
	// starts over empty; its runs are read back at reduce time. Zero or
	// negative means unbounded: nothing spills.
	//
	// The budget covers the shuffle only. Each reduce worker still
	// materializes one reducer's copies at a time, so the peak memory of a
	// run is roughly MemoryBudget + Workers x the largest reducer load (for
	// schema-driven jobs: the reducer capacity q).
	MemoryBudget int64
	// SpillDir is the directory spill runs are written under; "" means the
	// OS temp dir. Each run creates (lazily, on first spill) one private
	// "mr-spill-*" subdirectory and removes it when the run ends, whatever
	// the outcome.
	SpillDir string
	// OnSpill, when non-nil, is invoked after each spilled run with the
	// reducer and the bytes written to the run file (metrics hook).
	OnSpill func(partition int, runBytes int64)
	// OnStage, when non-nil, is invoked at the start of each phase ("map",
	// "reduce") and the returned function at its end (tracing hook).
	OnStage func(stage string) func()
}

// stage invokes the OnStage hook, tolerating nil hooks and nil end funcs.
func (o *StreamOptions) stage(name string) func() {
	if o.OnStage == nil {
		return func() {}
	}
	end := o.OnStage(name)
	if end == nil {
		return func() {}
	}
	return end
}
