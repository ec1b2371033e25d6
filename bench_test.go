// Package repro's root-level benchmarks regenerate every experiment of
// EXPERIMENTS.md (one benchmark per table/figure, T1..T15) plus
// micro-benchmarks of the core algorithms. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the same code as cmd/experiments at a
// reduced scale so a full -bench=. pass stays fast; the printed tables in
// EXPERIMENTS.md come from the full-scale binary.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/a2a"
	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/planner"
	"repro/internal/simjoin"
	"repro/internal/skewjoin"
	"repro/internal/workload"
	"repro/internal/x2y"
	"repro/pkg/assign"
)

// benchParams keeps the per-iteration work of the experiment benchmarks
// modest; the shapes match the full-scale tables.
func benchParams() experiments.Params {
	return experiments.Params{Seed: 42, Scale: 0.1, Workers: 16}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	var exp experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID == id {
			exp = e
			break
		}
	}
	if exp.Run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := exp.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if tbl.NumRows() == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per table/figure of EXPERIMENTS.md.

func BenchmarkT1A2AEqualSized(b *testing.B)         { runExperiment(b, "T1") }
func BenchmarkT2A2ADifferentSized(b *testing.B)     { runExperiment(b, "T2") }
func BenchmarkT3CommunicationTradeoff(b *testing.B) { runExperiment(b, "T3") }
func BenchmarkT4ParallelismTradeoff(b *testing.B)   { runExperiment(b, "T4") }
func BenchmarkT5X2YSweep(b *testing.B)              { runExperiment(b, "T5") }
func BenchmarkT6SkewJoin(b *testing.B)              { runExperiment(b, "T6") }
func BenchmarkT7SimilarityJoin(b *testing.B)        { runExperiment(b, "T7") }
func BenchmarkT8ApproximationRatio(b *testing.B)    { runExperiment(b, "T8") }
func BenchmarkT9BigInputs(b *testing.B)             { runExperiment(b, "T9") }
func BenchmarkT10BinPackAblation(b *testing.B)      { runExperiment(b, "T10") }
func BenchmarkT11SpeedupCurves(b *testing.B)        { runExperiment(b, "T11") }
func BenchmarkT12PruningAblation(b *testing.B)      { runExperiment(b, "T12") }
func BenchmarkT13MediumInputs(b *testing.B)         { runExperiment(b, "T13") }
func BenchmarkT14Portfolio(b *testing.B)            { runExperiment(b, "T14") }
func BenchmarkT15StreamChurn(b *testing.B)          { runExperiment(b, "T15") }

// Micro-benchmarks of the building blocks.

func BenchmarkA2ABinPackPair(b *testing.B) {
	for _, m := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, m, 1)
			if err != nil {
				b.Fatal(err)
			}
			q := core.Size(128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a2a.BinPackPair(set, q, binpack.FirstFitDecreasing); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkA2AEqualSized(b *testing.B) {
	for _, m := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			set, err := core.UniformInputSet(m, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a2a.EqualSized(set, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkX2YGrid(b *testing.B) {
	xs, err := workload.InputSet(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 30}, 500, 2)
	if err != nil {
		b.Fatal(err)
	}
	ys, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, 1500, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := x2y.Solve(xs, ys, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinPackFFD(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 50}, n, 4)
			if err != nil {
				b.Fatal(err)
			}
			items := make([]binpack.Item, n)
			for i, s := range sizes {
				items[i] = binpack.Item{ID: i, Size: s}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := binpack.Pack(items, 100, binpack.FirstFitDecreasing); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// plannerBenchSet builds the instance the planner benchmarks share.
func plannerBenchSet(b *testing.B) *core.InputSet {
	b.Helper()
	set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.5}, 500, 9)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkPlannerCold measures a full portfolio race on every iteration
// (cache disabled); BenchmarkPlannerCached measures the same request served
// from the canonicalization cache. The gap between the two is the cache win
// on repeated isomorphic workloads.
func BenchmarkPlannerCold(b *testing.B) {
	set := plannerBenchSet(b)
	p := planner.New(planner.Config{CacheEntries: -1})
	req := planner.Request{Problem: core.ProblemA2A, Set: set, Capacity: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerCached(b *testing.B) {
	set := plannerBenchSet(b)
	p := planner.New(planner.Config{})
	req := planner.Request{Problem: core.ProblemA2A, Set: set, Capacity: 128}
	if _, err := p.Plan(context.Background(), req); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Plan(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkExecBatch measures the schema-driven execution layer under
// service-style traffic: a batch of schema-driven jobs — planned once through
// the shared facade, so iterations exercise execution, not solving — runs
// end-to-end (compile, map, shuffle, owner-elected pair reduction, and the
// conformance audit) on a bounded worker pool.
func BenchmarkExecBatch(b *testing.B) {
	sizes, err := workload.Sizes(workload.SizeSpec{Dist: workload.Zipf, Min: 1, Max: 30, Skew: 1.3}, 40, 17)
	if err != nil {
		b.Fatal(err)
	}
	set := core.MustNewInputSet(sizes)
	plan, err := planner.Plan(context.Background(), planner.Request{
		Problem: core.ProblemA2A, Set: set, Capacity: 64,
		Budget: planner.Budget{Timeout: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([][]byte, len(sizes))
	for i, s := range sizes {
		inputs[i] = make([]byte, s)
	}
	const jobs = 16
	reqs := make([]exec.Request, jobs)
	for i := range reqs {
		reqs[i] = exec.Request{
			Name:   fmt.Sprintf("bench-job-%d", i),
			Plan:   plan,
			Inputs: inputs,
			Pair: func(x, y exec.Record, emit func([]byte)) error {
				if len(x.Data)+len(y.Data) > 0 {
					emit([]byte{byte(x.ID), byte(y.ID)})
				}
				return nil
			},
		}
	}
	wantPairs := int64(len(sizes) * (len(sizes) - 1) / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := exec.RunBatch(context.Background(), reqs, exec.BatchOptions{Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.PairsProcessed != wantPairs {
				b.Fatalf("job processed %d pairs, want %d", r.PairsProcessed, wantPairs)
			}
		}
	}
}

// BenchmarkExecStream measures the streaming execution path end to end: a
// similarity join over synthetic fixed-width documents fed through
// pkg/assign's Source option — records are generated on the fly, never
// materialized as an input slice — and drained through Each. Every iteration
// pushes the full C(m,2) > 1M candidate pair stream through the
// reducer-indexed route→reduce engine (audit included); the records/s metric counts
// reducer-side record reads, two per owned pair. The schema is planned once
// before the timer via the canonicalization cache, so iterations measure
// execution, not solving.
func BenchmarkExecStream(b *testing.B) {
	const (
		numDocs = 1500 // C(1500,2) = 1,124,250 pairs per iteration
		recSize = 16
	)
	sizes := make([]assign.Size, numDocs)
	for i := range sizes {
		sizes[i] = recSize
	}
	doc := func(i int) []byte {
		rec := make([]byte, recSize)
		for j := range rec {
			rec[j] = byte((i*31 + j*7) % 251)
		}
		return rec
	}
	newSource := func() assign.RecordSource {
		next := 0
		return assign.RecordSourceFunc(func() ([]byte, error) {
			if next >= numDocs {
				return nil, io.EOF
			}
			rec := doc(next)
			next++
			return rec, nil
		})
	}
	var similar int64
	opts := func() []assign.Option {
		return []assign.Option{
			assign.Named("bench-exec-stream"),
			assign.Capacity(100 * recSize),
			assign.Source(newSource(), sizes),
			assign.Pair(func(x, y assign.Record, emit func([]byte)) error {
				match := 0
				for k := range x.Data {
					if x.Data[k] == y.Data[k] {
						match++
					}
				}
				if match >= recSize-1 { // near-duplicates only: keep emission rare
					emit([]byte{byte(x.ID >> 8), byte(x.ID), byte(y.ID >> 8), byte(y.ID)})
				}
				return nil
			}),
			assign.Each(func(rec []byte) error { similar++; return nil }),
		}
	}
	const wantPairs = int64(numDocs) * (numDocs - 1) / 2
	warm, err := assign.Execute(context.Background(), opts()...)
	if err != nil {
		b.Fatal(err)
	}
	if warm.PairsProcessed != wantPairs {
		b.Fatalf("processed %d pairs, want %d", warm.PairsProcessed, wantPairs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := assign.Execute(context.Background(), opts()...)
		if err != nil {
			b.Fatal(err)
		}
		if ex.PairsProcessed != wantPairs {
			b.Fatalf("processed %d pairs, want %d", ex.PairsProcessed, wantPairs)
		}
	}
	b.ReportMetric(float64(2*wantPairs)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkSchemaValidateA2A(b *testing.B) {
	set, err := workload.InputSet(workload.SizeSpec{Dist: workload.Uniform, Min: 1, Max: 30}, 500, 5)
	if err != nil {
		b.Fatal(err)
	}
	ms, err := a2a.Solve(set, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ms.ValidateA2A(set); err != nil {
			b.Fatal(err)
		}
	}
}

// The two end-to-end benchmarks below plan through the shared planner
// facade, so iterations after the first serve the mapping schema from its
// canonicalization cache — representative of a production loop over a
// repeated workload. BenchmarkPlannerCold isolates the uncached solve cost.

func BenchmarkSimilarityJoinEndToEnd(b *testing.B) {
	docs, err := workload.Documents(workload.CorpusSpec{
		NumDocs: 100, VocabularySize: 200, MinTerms: 5, MaxTerms: 20, TermSkew: 1.2}, 6)
	if err != nil {
		b.Fatal(err)
	}
	cfg := simjoin.Config{Capacity: 3000, Threshold: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simjoin.Run(docs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSkewJoinEndToEnd(b *testing.B) {
	x, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "X", NumTuples: 2000, NumKeys: 50, Skew: 1.3, PayloadBytes: 10}, 7)
	if err != nil {
		b.Fatal(err)
	}
	y, err := workload.GenerateRelation(workload.RelationSpec{
		Name: "Y", NumTuples: 2000, NumKeys: 50, Skew: 1.3, PayloadBytes: 10}, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := skewjoin.Config{Capacity: 6000, CountOnly: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := skewjoin.Run(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
