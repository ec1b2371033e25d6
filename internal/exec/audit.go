package exec

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mr"
)

// Conformance violation classes. Every violation found by the auditor wraps
// exactly one of these sentinels, so callers can classify failures with
// errors.Is even when several violations are aggregated.
var (
	// ErrOverCapacity flags a reducer whose declared load exceeds the
	// schema's capacity q.
	ErrOverCapacity = errors.New("exec: reducer load exceeds the schema capacity")
	// ErrUncoveredPair flags a required pair that no reducer owns (statically:
	// the inputs share no reducer; dynamically: the pair was never processed).
	ErrUncoveredPair = errors.New("exec: required pair is not covered")
	// ErrDuplicatePair flags a required pair processed more than once.
	ErrDuplicatePair = errors.New("exec: required pair processed more than once")
	// ErrWrongOwner flags a pair processed at a reducer that is not its owner.
	ErrWrongOwner = errors.New("exec: pair processed at a non-owning reducer")
	// ErrLoadMismatch flags a reducer whose measured engine load differs from
	// the load the schema's routing prescribes.
	ErrLoadMismatch = errors.New("exec: achieved reducer load differs from the schema's routing")
)

// Violation is one conformance failure.
type Violation struct {
	// Err is the violation's class sentinel (one of the errors above).
	Err error
	// Reducer is the reducer involved, or -1 when none is.
	Reducer int
	// A and B identify the pair involved (input IDs; for X2Y, A is the X-side
	// ID and B the Y-side ID), or -1 when no pair is involved.
	A, B int
	// Detail is a human-readable elaboration.
	Detail string
}

// Error implements error.
func (v Violation) Error() string {
	return fmt.Sprintf("%v: %s", v.Err, v.Detail)
}

// Unwrap exposes the class sentinel to errors.Is.
func (v Violation) Unwrap() error { return v.Err }

// AuditError aggregates every violation found by one audit pass.
type AuditError struct {
	Violations []Violation
}

// Error implements error.
func (e *AuditError) Error() string {
	msgs := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		msgs[i] = v.Error()
	}
	return fmt.Sprintf("%d conformance violation(s): %s", len(e.Violations), strings.Join(msgs, "; "))
}

// Unwrap exposes the individual violations, so errors.Is matches any class
// present in the aggregate.
func (e *AuditError) Unwrap() []error {
	errs := make([]error, len(e.Violations))
	for i := range e.Violations {
		errs[i] = e.Violations[i]
	}
	return errs
}

// Trace is the concurrent log of processed pairs one execution produces. The
// compiled reducers record every pair they process; the auditor replays the
// log against the schema's promises. Tests may also fabricate traces to probe
// the auditor itself.
//
// Two storage modes exist. NewTrace builds the sparse mode: a mutex-guarded
// map, fine for fabricated traces and small runs. newDenseTrace (used by the
// executor, which knows the instance shape up front) stores the first
// recording reducer of each pair in a flat array updated by compare-and-swap,
// so the reduce-phase hot path records without taking a lock; only duplicate
// recordings — absent in healthy runs — fall back to the mutex.
type Trace struct {
	mu    sync.Mutex
	pairs map[[2]int][]int // sparse mode: pair -> reducers that processed it

	// Dense mode. For X2Y, cols is the Y-side width and pairs live in a
	// rows×cols grid; for A2A, tri is the input count and pairs (a < b)
	// live in the strictly-upper-triangle layout, halving the array. Either
	// way first[slot] holds reducer+1 of the first recording, 0 when
	// unrecorded. dups collects recordings beyond the first; dupCount gates
	// the slow path so healthy replays never lock.
	cols     int
	tri      int
	first    []int32
	recorded atomic.Int64
	dupCount atomic.Int64
	dups     map[[2]int][]int
}

// NewTrace returns an empty sparse trace.
func NewTrace() *Trace {
	return &Trace{pairs: make(map[[2]int][]int)}
}

// newDenseTrace returns a grid-mode trace for first coordinates in
// [0, rows) and second coordinates in [0, cols) — the X2Y shape.
func newDenseTrace(rows, cols int) *Trace {
	return &Trace{cols: cols, first: make([]int32, rows*cols)}
}

// newTriTrace returns a triangular-mode trace for A2A pairs a < b over m
// inputs: m(m-1)/2 slots instead of m².
func newTriTrace(m int) *Trace {
	return &Trace{tri: m, first: make([]int32, m*(m-1)/2)}
}

// dense reports whether the trace uses dense storage.
func (t *Trace) dense() bool { return t.first != nil }

// slot maps a pair to its dense offset, or -1 when the pair is outside the
// trace's universe (a healthy compiled job never records such a pair; the
// dups map keeps the event for the audit to flag).
func (t *Trace) slot(a, b int) int {
	if t.tri > 0 {
		if a < 0 || b <= a || b >= t.tri {
			return -1
		}
		return a*(2*t.tri-a-1)/2 + (b - a - 1)
	}
	if a < 0 || b < 0 || b >= t.cols {
		return -1
	}
	if idx := a*t.cols + b; idx < len(t.first) {
		return idx
	}
	return -1
}

// Record logs that the given reducer processed the pair (a, b). For A2A pairs
// the caller passes a < b; for X2Y, a is the X-side ID and b the Y-side ID.
func (t *Trace) Record(reducer, a, b int) {
	if t.dense() {
		if idx := t.slot(a, b); idx >= 0 &&
			atomic.CompareAndSwapInt32(&t.first[idx], 0, int32(reducer)+1) {
			t.recorded.Add(1)
			return
		}
		// A duplicate recording (or an out-of-range pair a healthy compiled
		// job can never produce): the slow path keeps every event.
		t.mu.Lock()
		if t.dups == nil {
			t.dups = make(map[[2]int][]int)
		}
		t.dups[[2]int{a, b}] = append(t.dups[[2]int{a, b}], reducer)
		t.mu.Unlock()
		t.dupCount.Add(1)
		return
	}
	t.mu.Lock()
	t.pairs[[2]int{a, b}] = append(t.pairs[[2]int{a, b}], reducer)
	t.mu.Unlock()
}

// Pairs returns how many distinct pairs were recorded.
func (t *Trace) Pairs() int64 {
	if t.dense() {
		n := t.recorded.Load()
		if t.dupCount.Load() > 0 {
			t.mu.Lock()
			for p := range t.dups {
				idx := t.slot(p[0], p[1])
				if idx < 0 || atomic.LoadInt32(&t.first[idx]) == 0 {
					n++ // out-of-range pair kept only in dups
				}
			}
			t.mu.Unlock()
		}
		return n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.pairs))
}

// processedBy returns the reducers that processed the pair.
func (t *Trace) processedBy(a, b int) []int {
	if t.dense() {
		var got []int
		if idx := t.slot(a, b); idx >= 0 {
			if f := atomic.LoadInt32(&t.first[idx]); f != 0 {
				got = append(got, int(f)-1)
			}
		}
		if t.dupCount.Load() > 0 {
			t.mu.Lock()
			got = append(got, t.dups[[2]int{a, b}]...)
			t.mu.Unlock()
		}
		return got
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pairs[[2]int{a, b}]
}

// schemaIndex holds everything derived from a schema and an instance shape
// that is independent of the request's payload bytes: the per-input reducer
// assignment slices the routing replicates along, and the bitset membership
// rows (one CoverSet over reducer indexes per input) that owner election,
// coverage checks, and trace replay run on. Batch execution builds it once
// per distinct schema and shares it across jobs.
type schemaIndex struct {
	schema *core.MappingSchema
	// aAssign holds A2A per-input assignments; xAssign/yAssign the X2Y sides.
	aAssign          [][]int
	xAssign, yAssign [][]int
	// aBits/xBits/yBits are the bitset rows matching the assignments.
	aBits, xBits, yBits []core.CoverSet
	numA, numX, numY    int

	// preOnce/preErr cache PreCheck, which depends only on schema and shape,
	// so batch audits sharing the index pay for it once.
	preOnce sync.Once
	preErr  error
}

// bitRows converts assignment slices to bitset rows over numReducers.
func bitRows(assign [][]int, numReducers int) []core.CoverSet {
	rows := make([]core.CoverSet, len(assign))
	for i, rs := range assign {
		rows[i].Reset(numReducers)
		rows[i].AddAll(rs)
	}
	return rows
}

// newSchemaIndexA2A builds the shared index for an A2A schema over numInputs.
func newSchemaIndexA2A(schema *core.MappingSchema, numInputs int) (*schemaIndex, error) {
	if schema.Problem != core.ProblemA2A {
		return nil, fmt.Errorf("exec: NewAuditor needs an A2A schema, got %v", schema.Problem)
	}
	if err := checkIDRanges(schema, numInputs, 0, 0); err != nil {
		return nil, err
	}
	assign := mr.AssignmentsA2A(schema, numInputs)
	return &schemaIndex{
		schema:  schema,
		aAssign: assign,
		aBits:   bitRows(assign, schema.NumReducers()),
		numA:    numInputs,
	}, nil
}

// newSchemaIndexX2Y builds the shared index for an X2Y schema.
func newSchemaIndexX2Y(schema *core.MappingSchema, numX, numY int) (*schemaIndex, error) {
	if schema.Problem != core.ProblemX2Y {
		return nil, fmt.Errorf("exec: NewAuditorX2Y needs an X2Y schema, got %v", schema.Problem)
	}
	if err := checkIDRanges(schema, 0, numX, numY); err != nil {
		return nil, err
	}
	x, y := mr.AssignmentsX2Y(schema, numX, numY)
	n := schema.NumReducers()
	return &schemaIndex{
		schema:  schema,
		xAssign: x, yAssign: y,
		xBits: bitRows(x, n), yBits: bitRows(y, n),
		numX: numX, numY: numY,
	}, nil
}

// matches reports whether the index was built for this schema and shape.
func (idx *schemaIndex) matches(schema *core.MappingSchema, numA, numX, numY int) bool {
	return idx != nil && idx.schema == schema &&
		idx.numA == numA && idx.numX == numX && idx.numY == numY
}

// requiredPairCount returns how many pairs the instance requires covered.
func (idx *schemaIndex) requiredPairCount() int {
	if idx.schema.Problem == core.ProblemA2A {
		return idx.numA * (idx.numA - 1) / 2
	}
	return idx.numX * idx.numY
}

// pairIndex maps a required pair to its dense offset: the strictly-upper
// triangle for A2A (i < j), the full grid for X2Y.
func (idx *schemaIndex) pairIndex(i, j int) int {
	if idx.schema.Problem == core.ProblemA2A {
		return i*(2*idx.numA-i-1)/2 + (j - i - 1)
	}
	return i*idx.numY + j
}

// sweepOwners visits every required pair the schema covers exactly once, at
// its owner, by scanning reducers in ascending index order: the first
// reducer containing a pair is, by definition, the pair's owning reducer.
// This replaces the per-pair set intersections of the old verification loop
// (O(m² · replication) work) with O(Σ |reducer members|²) work at O(1) per
// visit — the popcount at the end prices coverage. The returned bitset over
// pair indexes marks covered pairs; the caller must release it with
// core.PutCoverSet.
func (idx *schemaIndex) sweepOwners(visit func(i, j, owner int)) *core.CoverSet {
	covered := core.GetCoverSet(idx.requiredPairCount())
	for r, red := range idx.schema.Reducers {
		if idx.schema.Problem == core.ProblemA2A {
			for a := 0; a < len(red.Inputs); a++ {
				for b := a + 1; b < len(red.Inputs); b++ {
					i, j := red.Inputs[a], red.Inputs[b]
					if i > j {
						i, j = j, i
					}
					if i == j {
						continue // a corrupted schema can duplicate a member
					}
					p := idx.pairIndex(i, j)
					if covered.Contains(p) {
						continue
					}
					covered.Add(p)
					if visit != nil {
						visit(i, j, r)
					}
				}
			}
			continue
		}
		for _, x := range red.XInputs {
			for _, y := range red.YInputs {
				p := idx.pairIndex(x, y)
				if covered.Contains(p) {
					continue
				}
				covered.Add(p)
				if visit != nil {
					visit(x, y, r)
				}
			}
		}
	}
	return covered
}

// owner returns the owning reducer of a required pair: the lowest-indexed
// reducer both inputs are assigned to, found as the lowest common set bit of
// the two membership rows.
func (idx *schemaIndex) owner(i, j int) int {
	if idx.schema.Problem == core.ProblemA2A {
		return idx.aBits[i].IntersectMin(&idx.aBits[j])
	}
	return idx.xBits[i].IntersectMin(&idx.yBits[j])
}

// Auditor holds the expectations compiled from one schema: the shared
// schema index (per-input reducer assignments as slices and bitset rows)
// plus, when compiled by Run, the exact per-reducer engine byte loads the
// routing must produce. It checks a schema before execution (PreCheck) and a
// completed run after (Check).
type Auditor struct {
	idx *schemaIndex
	// expectedLoads, when non-nil, enables the engine-load conformance check.
	expectedLoads []int64
}

// NewAuditor builds the auditor for an A2A schema over numInputs inputs.
func NewAuditor(schema *core.MappingSchema, numInputs int) (*Auditor, error) {
	idx, err := newSchemaIndexA2A(schema, numInputs)
	if err != nil {
		return nil, err
	}
	return &Auditor{idx: idx}, nil
}

// NewAuditorX2Y builds the auditor for an X2Y schema over numX and numY
// inputs per side.
func NewAuditorX2Y(schema *core.MappingSchema, numX, numY int) (*Auditor, error) {
	idx, err := newSchemaIndexX2Y(schema, numX, numY)
	if err != nil {
		return nil, err
	}
	return &Auditor{idx: idx}, nil
}

// checkIDRanges rejects schemas referencing inputs outside the instance; a
// schema for a different instance is a caller bug, not a conformance finding.
func checkIDRanges(schema *core.MappingSchema, numA, numX, numY int) error {
	for r, red := range schema.Reducers {
		for _, id := range red.Inputs {
			if id < 0 || id >= numA {
				return fmt.Errorf("%w: reducer %d references input %d (instance has %d)", ErrBadInputs, r, id, numA)
			}
		}
		for _, id := range red.XInputs {
			if id < 0 || id >= numX {
				return fmt.Errorf("%w: reducer %d references X input %d (side has %d)", ErrBadInputs, r, id, numX)
			}
		}
		for _, id := range red.YInputs {
			if id < 0 || id >= numY {
				return fmt.Errorf("%w: reducer %d references Y input %d (side has %d)", ErrBadInputs, r, id, numY)
			}
		}
	}
	return nil
}

// Owner returns the owning reducer of a required pair: the lowest-indexed
// reducer both inputs are assigned to, or -1 when they share none. For A2A
// the arguments are two input IDs; for X2Y an X-side and a Y-side ID.
func (a *Auditor) Owner(i, j int) int { return a.idx.owner(i, j) }

// requiredPairs invokes fn for every required pair of the instance.
func (a *Auditor) requiredPairs(fn func(i, j int)) {
	if a.idx.schema.Problem == core.ProblemA2A {
		for i := 0; i < a.idx.numA; i++ {
			for j := i + 1; j < a.idx.numA; j++ {
				fn(i, j)
			}
		}
		return
	}
	for x := 0; x < a.idx.numX; x++ {
		for y := 0; y < a.idx.numY; y++ {
			fn(x, y)
		}
	}
}

// PreCheck verifies the schema's own promises before anything runs: every
// declared reducer load is within the capacity q and every required pair has
// an owning reducer. It returns an *AuditError listing every violation.
// The result is cached on the shared index, so batch jobs over one schema
// pay for the pair sweep once.
func (a *Auditor) PreCheck() error {
	a.idx.preOnce.Do(func() { a.idx.preErr = a.preCheck() })
	return a.idx.preErr
}

func (a *Auditor) preCheck() error {
	var violations []Violation
	for r, red := range a.idx.schema.Reducers {
		if red.Load > a.idx.schema.Capacity {
			violations = append(violations, Violation{
				Err: ErrOverCapacity, Reducer: r, A: -1, B: -1,
				Detail: fmt.Sprintf("reducer %d declares load %d > q=%d", r, red.Load, a.idx.schema.Capacity),
			})
		}
	}
	covered := a.idx.sweepOwners(nil)
	if covered.Count() != a.idx.requiredPairCount() {
		// Slow path only on failure: name every uncovered pair.
		a.requiredPairs(func(i, j int) {
			if !covered.Contains(a.idx.pairIndex(i, j)) {
				violations = append(violations, Violation{
					Err: ErrUncoveredPair, Reducer: -1, A: i, B: j,
					Detail: fmt.Sprintf("pair (%d,%d) shares no reducer", i, j),
				})
			}
		})
	}
	core.PutCoverSet(covered)
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}

// CheckTrace verifies that the run processed every required pair exactly
// once, at its owning reducer.
func (a *Auditor) CheckTrace(tr *Trace) error {
	var violations []Violation
	flag := func(i, j, owner int, got []int) {
		switch {
		case len(got) == 0:
			violations = append(violations, Violation{
				Err: ErrUncoveredPair, Reducer: owner, A: i, B: j,
				Detail: fmt.Sprintf("pair (%d,%d) was never processed (owner %d)", i, j, owner),
			})
		case len(got) > 1:
			violations = append(violations, Violation{
				Err: ErrDuplicatePair, Reducer: owner, A: i, B: j,
				Detail: fmt.Sprintf("pair (%d,%d) processed by reducers %v", i, j, got),
			})
		case got[0] != owner:
			violations = append(violations, Violation{
				Err: ErrWrongOwner, Reducer: got[0], A: i, B: j,
				Detail: fmt.Sprintf("pair (%d,%d) processed at reducer %d, owner is %d", i, j, got[0], owner),
			})
		}
	}
	if tr.dense() && tr.dupCount.Load() == 0 {
		// Fast replay: the ascending reducer sweep visits every covered pair
		// once, at its owner, so conformance is one lock-free array load per
		// pair. Violations re-derive their detail through the slow accessors.
		covered := a.idx.sweepOwners(func(i, j, owner int) {
			var f int32
			if idx := tr.slot(i, j); idx >= 0 {
				f = atomic.LoadInt32(&tr.first[idx])
			}
			if f == 0 || int(f)-1 != owner {
				flag(i, j, owner, tr.processedBy(i, j))
			}
		})
		if covered.Count() != a.idx.requiredPairCount() {
			// Pairs the schema never covers: owner is -1; anything the trace
			// holds for them is a wrong-owner processing.
			a.requiredPairs(func(i, j int) {
				if !covered.Contains(a.idx.pairIndex(i, j)) {
					flag(i, j, -1, tr.processedBy(i, j))
				}
			})
		}
		core.PutCoverSet(covered)
	} else {
		a.requiredPairs(func(i, j int) {
			flag(i, j, a.idx.owner(i, j), tr.processedBy(i, j))
		})
	}
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}

// CheckLoads verifies the engine's measured per-reducer loads against the
// exact byte loads the schema's routing prescribes. It is a no-op when the
// auditor was built without expected loads (i.e. outside Run).
func (a *Auditor) CheckLoads(c *mr.Counters) error {
	if a.expectedLoads == nil {
		return nil
	}
	var violations []Violation
	if len(c.ReducerLoads) != len(a.expectedLoads) {
		violations = append(violations, Violation{
			Err: ErrLoadMismatch, Reducer: -1, A: -1, B: -1,
			Detail: fmt.Sprintf("engine reports %d partitions, schema has %d reducers", len(c.ReducerLoads), len(a.expectedLoads)),
		})
	} else {
		for r, want := range a.expectedLoads {
			if got := c.ReducerLoads[r]; got != want {
				violations = append(violations, Violation{
					Err: ErrLoadMismatch, Reducer: r, A: -1, B: -1,
					Detail: fmt.Sprintf("reducer %d received %d bytes, routing prescribes %d", r, got, want),
				})
			}
		}
	}
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}

// Check runs the full post-run audit: trace conformance plus load
// conformance, with every violation aggregated into one *AuditError.
func (a *Auditor) Check(tr *Trace, c *mr.Counters) error {
	var violations []Violation
	collect := func(err error) {
		var ae *AuditError
		if errors.As(err, &ae) {
			violations = append(violations, ae.Violations...)
		}
	}
	collect(a.CheckTrace(tr))
	collect(a.CheckLoads(c))
	if len(violations) > 0 {
		return &AuditError{Violations: violations}
	}
	return nil
}
