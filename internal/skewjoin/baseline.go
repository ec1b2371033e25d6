package skewjoin

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/workload"
)

// BaselineResult describes a plain hash join used as the comparison point for
// the skew-aware plan: every tuple of key k goes to reducer hash(k) % R, so a
// heavy hitter lands entirely on one reducer.
type BaselineResult struct {
	// NumReducers is the number of reducers used.
	NumReducers int
	// JoinedCount is the number of output rows.
	JoinedCount int64
	// ShuffleBytes is the total shipped volume, and ReducerLoads the volume
	// each reducer receives, charging every tuple its key plus its
	// "<side>|<key>|<payload>" record.
	ShuffleBytes int64
	ReducerLoads []int64
	// MaxReducerLoad is the largest entry of ReducerLoads; it shows the skew.
	MaxReducerLoad int64
	// CapacityViolated reports whether some reducer received more than the
	// capacity q — i.e. whether the plain hash join would simply not fit the
	// paper's reducer-capacity model.
	CapacityViolated bool
}

// HashJoinBaseline computes, in process, the ordinary repartition (hash) join
// with the given number of reducers and reports its load profile against
// the capacity q. Unlike Run it never fails on capacity: it reports the
// violation instead, so experiments can show how badly the heavy hitters
// overload a single reducer.
func HashJoinBaseline(x, y *workload.Relation, numReducers int, q core.Size) (*BaselineResult, error) {
	if x == nil || y == nil || len(x.Tuples) == 0 || len(y.Tuples) == 0 {
		return nil, ErrEmptyRelation
	}
	if numReducers <= 0 {
		return nil, fmt.Errorf("skewjoin: baseline needs a positive reducer count, got %d", numReducers)
	}
	res := &BaselineResult{NumReducers: numReducers, ReducerLoads: make([]int64, numReducers)}
	for _, rel := range []*workload.Relation{x, y} {
		for _, t := range rel.Tuples {
			h := fnv.New32a()
			h.Write([]byte(t.Key))
			load := int64(2*len(t.Key) + 3 + len(t.Payload))
			res.ReducerLoads[h.Sum32()%uint32(numReducers)] += load
			res.ShuffleBytes += load
		}
	}
	res.JoinedCount = ReferenceJoinCount(x, y)
	for _, l := range res.ReducerLoads {
		res.MaxReducerLoad = max(res.MaxReducerLoad, l)
	}
	res.CapacityViolated = q > 0 && res.MaxReducerLoad > int64(q)
	return res, nil
}
