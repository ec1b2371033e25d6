package mr

import (
	"errors"
	"fmt"
	"strconv"
)

// Route says where the routing step sends one input record: the value to
// ship and the reducers that each receive a copy of it.
type Route struct {
	// Value is shipped, shared and unchanged, to every reducer in Reducers.
	Value []byte
	// Header is the per-copy framing, in bytes, that the wire format puts in
	// front of Value (for schema-driven jobs: the record's side and input
	// ID). It is charged to the shuffle counters; the engine never builds it.
	Header int
	// Reducers lists the destination reducers, each in [0, Job.NumReducers).
	// A record may go to none.
	Reducers []int
}

// Ref is one copy of an input record at a reducer: the record's index in the
// source, which is its provenance, and the value its route shipped.
type Ref struct {
	Index int
	Value []byte
}

// Job describes one reducer-indexed run.
type Job struct {
	// Name labels the job in errors.
	Name string
	// NumReducers is the number of reducers; it must be positive.
	NumReducers int
	// Route maps input record idx (its position in the source) to its
	// route. It is required and runs on one goroutine, in source order.
	Route func(idx int, rec []byte) (Route, error)
	// Reduce processes the copies reducer r received, in source order, and
	// emits output records. It is required and runs once per reducer that
	// received at least one copy, on the reduce worker pool.
	Reduce func(r int, refs []Ref, emit func([]byte)) error
	// ReducerCapacity, when positive, fails the run as soon as one reducer
	// receives more than this many shuffle bytes. It models the paper's
	// reducer capacity q at execution time.
	ReducerCapacity int64
	// Workers is the size of the reduce worker pool; 0 means GOMAXPROCS.
	Workers int
}

// CopyBytes is the shuffle size of one copy at reducer r of a value of
// valueLen bytes behind a header of header bytes: the reducer tag ("r" plus
// the decimal index), the header, and the value. This is the unit of every
// byte counter and of the memory budget.
func CopyBytes(r, header, valueLen int) int64 {
	var digits [20]byte
	return int64(1+len(strconv.AppendInt(digits[:0], int64(r), 10))+header) + int64(valueLen)
}

// Run errors.
var (
	ErrBadJob       = errors.New("mr: job needs a positive reducer count, a Route and a Reduce")
	ErrBadRoute     = errors.New("mr: route names a reducer outside the job")
	ErrOverCapacity = errors.New("mr: reducer exceeds the configured reducer capacity")
)

// validate checks the job configuration.
func (j *Job) validate() error {
	if j.NumReducers <= 0 || j.Route == nil || j.Reduce == nil {
		return fmt.Errorf("%w (job %q)", ErrBadJob, j.Name)
	}
	return nil
}
