package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/simjoin"
	"repro/internal/skewjoin"
	"repro/internal/workload"
)

// T6SkewJoin runs the end-to-end skew join on the MapReduce engine for a
// sweep of Zipf skew values and compares the skew-aware plan against the
// plain hash-join baseline: communication volume, maximum reducer load and
// whether the baseline would overflow the capacity.
func T6SkewJoin(p Params) (*report.Table, error) {
	p = p.normalize()
	tuplesPerSide := p.scaled(20000, 200)
	numKeys := p.scaled(200, 10)
	payload := 10
	capacity := core.Size(p.scaled(32000, 400))
	tbl := report.NewTable(
		fmt.Sprintf("T6: skew join end to end (%d tuples/side, %d keys, q=%d bytes)", tuplesPerSide, numKeys, capacity),
		"skew", "heavy_keys", "reducers", "comm_bytes", "max_load", "baseline_max_load",
		"baseline_violates_q", "load_ratio_vs_baseline", "output_rows_match")
	for _, skew := range []float64{0, 0.5, 1.0, 1.5} {
		x, err := workload.GenerateRelation(workload.RelationSpec{
			Name: "X", NumTuples: tuplesPerSide, NumKeys: numKeys, Skew: skew, PayloadBytes: payload}, p.Seed)
		if err != nil {
			return nil, err
		}
		y, err := workload.GenerateRelation(workload.RelationSpec{
			Name: "Y", NumTuples: tuplesPerSide, NumKeys: numKeys, Skew: skew, PayloadBytes: payload}, p.Seed+1)
		if err != nil {
			return nil, err
		}
		res, err := skewjoin.Run(x, y, skewjoin.Config{Capacity: capacity, CountOnly: true})
		if err != nil {
			return nil, fmt.Errorf("T6 skew=%v: %w", skew, err)
		}
		numReducers := res.Plan.NumReducers
		if numReducers == 0 {
			numReducers = 1
		}
		base, err := skewjoin.HashJoinBaseline(x, y, numReducers, capacity)
		if err != nil {
			return nil, fmt.Errorf("T6 skew=%v baseline: %w", skew, err)
		}
		loadRatio := 0.0
		if res.Counters.MaxReducerLoad > 0 {
			loadRatio = float64(base.MaxReducerLoad) / float64(res.Counters.MaxReducerLoad)
		}
		tbl.AddRow(skew, len(res.Plan.HeavyKeys), res.Plan.NumReducers,
			res.Counters.ShuffleBytes, res.Counters.MaxReducerLoad, base.MaxReducerLoad,
			base.CapacityViolated, loadRatio, res.JoinedCount == base.JoinedCount)
	}
	return tbl, nil
}

// T7SimilarityJoin runs the end-to-end similarity join on the MapReduce
// engine for a sweep of reducer capacities and reports the schema size,
// communication, and the number of similar pairs found (which must not
// depend on q).
func T7SimilarityJoin(p Params) (*report.Table, error) {
	p = p.normalize()
	numDocs := p.scaled(300, 12)
	corpus := workload.CorpusSpec{
		NumDocs:        numDocs,
		VocabularySize: 200,
		MinTerms:       5,
		MaxTerms:       25,
		TermSkew:       1.2,
	}
	docs, err := workload.Documents(corpus, p.Seed)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("T7: similarity join end to end (%d documents, Jaccard >= 0.5)", numDocs),
		"q_bytes", "reducers", "lb_reducers", "schema_comm", "shuffle_bytes", "replication", "similar_pairs")
	for _, q := range []core.Size{1500, 3000, 6000, 12000} {
		res, err := simjoin.Run(docs, simjoin.Config{Capacity: q, Threshold: 0.5, Similarity: simjoin.Jaccard})
		if err != nil {
			return nil, fmt.Errorf("T7 q=%d: %w", q, err)
		}
		tbl.AddRow(q, res.SchemaCost.Reducers, res.Bounds.Reducers, res.SchemaCost.Communication,
			res.Counters.ShuffleBytes, res.SchemaCost.ReplicationRate, len(res.Pairs))
	}
	return tbl, nil
}
