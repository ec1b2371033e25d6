package repro_test

import (
	"testing"

	"repro/internal/a2a"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simjoin"
	"repro/internal/skewjoin"
	"repro/internal/workload"
	"repro/internal/x2y"
)

// TestPipelineA2ASimilarityJoin wires the whole A2A stack together: generate
// a corpus, derive an input set from the document sizes, build and validate a
// mapping schema, execute the similarity join on the MapReduce engine, and
// check the answer against the nested-loop reference and the schema-level
// cost model against the engine's counters.
func TestPipelineA2ASimilarityJoin(t *testing.T) {
	docs, err := workload.Documents(workload.CorpusSpec{
		NumDocs: 120, VocabularySize: 150, MinTerms: 4, MaxTerms: 18, TermSkew: 1.2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simjoin.Config{Capacity: 2500, Threshold: 0.4, Similarity: simjoin.Jaccard}
	res, err := simjoin.Run(docs, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The schema must be a valid A2A mapping schema for the document sizes.
	sizes := make([]core.Size, len(docs))
	for i, d := range docs {
		sizes[i] = core.Size(d.SizeBytes())
	}
	set := core.MustNewInputSet(sizes)
	if err := res.Schema.ValidateA2A(set); err != nil {
		t.Fatalf("schema invalid: %v", err)
	}

	// The answer matches the reference exactly.
	want := simjoin.NestedLoopReference(docs, cfg)
	if len(res.Pairs) != len(want) {
		t.Fatalf("found %d pairs, reference %d", len(res.Pairs), len(want))
	}

	// The engine shipped at least the schema's communication (engine bytes
	// include the reducer-key overhead) and respected the reducer count.
	if res.Counters.ShuffleBytes < int64(res.SchemaCost.Communication) {
		t.Errorf("engine shuffled %d bytes, less than the schema communication %d",
			res.Counters.ShuffleBytes, res.SchemaCost.Communication)
	}
	if len(res.Counters.ReducerLoads) != res.Schema.NumReducers() {
		t.Errorf("engine used %d partitions, schema has %d reducers",
			len(res.Counters.ReducerLoads), res.Schema.NumReducers())
	}
	// And the cost never beats the proved lower bounds.
	if res.SchemaCost.Reducers < res.Bounds.Reducers {
		t.Errorf("reducers %d below lower bound %d", res.SchemaCost.Reducers, res.Bounds.Reducers)
	}
	if res.SchemaCost.Communication < res.Bounds.Communication {
		t.Errorf("communication %d below lower bound %d", res.SchemaCost.Communication, res.Bounds.Communication)
	}
}

// TestPipelineX2YSkewJoin wires the X2Y stack together: generate skewed
// relations, plan and run the skew join, compare against both the reference
// join and the hash-join baseline, and check that the per-heavy-hitter
// schemas validate.
func TestPipelineX2YSkewJoin(t *testing.T) {
	x, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "X", NumTuples: 3000, NumKeys: 60, Skew: 1.4, PayloadBytes: 12}, 21)
	if err != nil {
		t.Fatal(err)
	}
	y, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "Y", NumTuples: 3000, NumKeys: 60, Skew: 1.4, PayloadBytes: 12}, 22)
	if err != nil {
		t.Fatal(err)
	}
	capacity := core.Size(4000)
	res, err := skewjoin.Run(x, y, skewjoin.Config{Capacity: capacity, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.JoinedCount != skewjoin.ReferenceJoinCount(x, y) {
		t.Fatalf("join produced %d rows, reference %d", res.JoinedCount, skewjoin.ReferenceJoinCount(x, y))
	}
	if len(res.Plan.HeavyKeys) == 0 {
		t.Fatal("expected heavy hitters at this skew and capacity")
	}
	for key, schema := range res.Plan.HeavySchemas {
		if schema.NumReducers() == 0 {
			t.Errorf("heavy key %q has an empty schema", key)
		}
	}
	base, err := skewjoin.HashJoinBaseline(x, y, res.Plan.NumReducers, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if base.JoinedCount != res.JoinedCount {
		t.Errorf("baseline output %d != plan output %d", base.JoinedCount, res.JoinedCount)
	}
	if !base.CapacityViolated {
		t.Error("the plain hash join should overflow the capacity on the heavy hitters")
	}
	if base.MaxReducerLoad <= res.Counters.MaxReducerLoad {
		t.Errorf("baseline max load %d should exceed the skew-aware max load %d",
			base.MaxReducerLoad, res.Counters.MaxReducerLoad)
	}
}

// TestPipelineScheduleOnCluster closes the loop between the schema algorithms
// and the cluster simulator: the small-q schema must offer at least as much
// speedup at a large worker pool as the large-q schema, and both speedups are
// bounded by the pool size.
func TestPipelineScheduleOnCluster(t *testing.T) {
	set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 20, Skew: 1.5}, 400, 31)
	if err != nil {
		t.Fatal(err)
	}
	model := cluster.DefaultCostModel()
	schemaSmall, err := a2a.Solve(set, 64)
	if err != nil {
		t.Fatal(err)
	}
	schemaLarge, err := a2a.Solve(set, 512)
	if err != nil {
		t.Fatal(err)
	}
	const pool = 64
	small, err := cluster.Simulate(schemaSmall, pool, model)
	if err != nil {
		t.Fatal(err)
	}
	large, err := cluster.Simulate(schemaLarge, pool, model)
	if err != nil {
		t.Fatal(err)
	}
	if small.Speedup > float64(pool) || large.Speedup > float64(pool) {
		t.Errorf("speedups %v/%v exceed the pool size", small.Speedup, large.Speedup)
	}
	if small.Speedup+1e-9 < large.Speedup {
		t.Errorf("small-q schema (%d tasks) should parallelise at least as well as large-q (%d tasks): %v vs %v",
			small.Tasks, large.Tasks, small.Speedup, large.Speedup)
	}
	if small.TotalWork <= large.TotalWork {
		t.Errorf("small-q schema should have more total work: %v vs %v", small.TotalWork, large.TotalWork)
	}
}

// TestPipelineX2YSchemaAgainstExactOnTinyInstance cross-checks the X2Y
// heuristic, the exact solver, and the lower bound on a tiny instance that
// all three can handle.
func TestPipelineX2YSchemaAgainstExactOnTinyInstance(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{4, 2, 3})
	ys := core.MustNewInputSet([]core.Size{2, 2, 1})
	q := core.Size(8)
	heur, err := x2y.Solve(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := x2y.Exact(xs, ys, q, x2y.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lb := x2y.LowerBounds(xs, ys, q)
	if exact.NumReducers() > heur.NumReducers() {
		t.Errorf("exact %d reducers worse than heuristic %d", exact.NumReducers(), heur.NumReducers())
	}
	if exact.NumReducers() < lb.Reducers {
		t.Errorf("exact %d reducers below lower bound %d", exact.NumReducers(), lb.Reducers)
	}
	if err := heur.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("heuristic schema invalid: %v", err)
	}
	if err := exact.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("exact schema invalid: %v", err)
	}
}
