package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/mr"
	"repro/internal/planner"
	"repro/internal/x2y"
)

// makeInputs builds n inputs whose data lengths follow the given sizes.
func makeInputs(sizes []core.Size) [][]byte {
	out := make([][]byte, len(sizes))
	for i, s := range sizes {
		out[i] = bytes.Repeat([]byte{byte('A' + i%26)}, int(s))
	}
	return out
}

// pairIDs is a PairFunc that emits "i,j" for every processed pair.
func pairIDs(a, b Record, emit func([]byte)) error {
	emit([]byte(fmt.Sprintf("%d,%d", a.ID, b.ID)))
	return nil
}

func solveA2A(t *testing.T, sizes []core.Size, q core.Size) *core.MappingSchema {
	t.Helper()
	set := core.MustNewInputSet(sizes)
	ms, err := a2a.Solve(set, q)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func solveX2Y(t *testing.T, xSizes, ySizes []core.Size, q core.Size) *core.MappingSchema {
	t.Helper()
	xs, ys := core.MustNewInputSet(xSizes), core.MustNewInputSet(ySizes)
	ms, err := x2y.Solve(xs, ys, q)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestRunA2AProcessesEveryPairOnce(t *testing.T) {
	sizes := []core.Size{3, 3, 2, 2, 4, 1, 2, 3}
	schema := solveA2A(t, sizes, 10)
	res, err := Run(Request{
		Name:   "a2a-pairs",
		Schema: schema,
		Inputs: makeInputs(sizes),
		Pair:   pairIDs,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(sizes)
	wantPairs := n * (n - 1) / 2
	if res.PairsProcessed != int64(wantPairs) {
		t.Errorf("PairsProcessed = %d, want %d", res.PairsProcessed, wantPairs)
	}
	if len(res.Output) != wantPairs {
		t.Fatalf("emitted %d records, want %d", len(res.Output), wantPairs)
	}
	seen := map[string]bool{}
	for _, rec := range res.Output {
		if seen[string(rec)] {
			t.Fatalf("pair %q emitted twice", rec)
		}
		seen[string(rec)] = true
	}
	if !res.Audited {
		t.Error("run was not audited")
	}
	if res.Counters.ShuffleBytes == 0 || res.Counters.MaxReducerLoad == 0 {
		t.Error("expected non-zero shuffle accounting")
	}
}

func TestRunX2YProcessesEveryCrossPairOnce(t *testing.T) {
	xSizes := []core.Size{7, 2, 1, 3}
	ySizes := []core.Size{1, 2, 1, 1, 2}
	schema := solveX2Y(t, xSizes, ySizes, 10)
	res, err := Run(Request{
		Name:    "x2y-pairs",
		Schema:  schema,
		XInputs: makeInputs(xSizes),
		YInputs: makeInputs(ySizes),
		Pair:    pairIDs,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(xSizes) * len(ySizes)
	if res.PairsProcessed != int64(want) || len(res.Output) != want {
		t.Fatalf("processed %d pairs, emitted %d, want %d", res.PairsProcessed, len(res.Output), want)
	}
	seen := map[string]bool{}
	for _, rec := range res.Output {
		if seen[string(rec)] {
			t.Fatalf("pair %q emitted twice", rec)
		}
		seen[string(rec)] = true
	}
}

func TestRunAcceptsPlannerResult(t *testing.T) {
	sizes := []core.Size{3, 3, 2, 2, 4, 1}
	set := core.MustNewInputSet(sizes)
	plan, err := planner.New(planner.Config{CacheEntries: -1}).Plan(context.Background(), planner.Request{
		Problem: core.ProblemA2A, Set: set, Capacity: 10,
		Budget: planner.Budget{Timeout: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Request{Name: "from-plan", Plan: plan, Inputs: makeInputs(sizes), Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != plan.Schema {
		t.Error("result schema is not the planned schema")
	}
	if want := int64(len(sizes) * (len(sizes) - 1) / 2); res.PairsProcessed != want {
		t.Errorf("PairsProcessed = %d, want %d", res.PairsProcessed, want)
	}
}

func TestRunZeroReducerSchema(t *testing.T) {
	// A single input has no required pair; its schema has no reducers.
	schema := solveA2A(t, []core.Size{5}, 10)
	if schema.NumReducers() != 0 {
		t.Fatalf("expected an empty schema, got %d reducers", schema.NumReducers())
	}
	res, err := Run(Request{Name: "empty", Schema: schema, Inputs: makeInputs([]core.Size{5}), Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 || res.PairsProcessed != 0 {
		t.Errorf("empty schema produced output: %+v", res)
	}
}

func TestRunRequestValidation(t *testing.T) {
	sizes := []core.Size{2, 2, 2}
	schema := solveA2A(t, sizes, 6)
	inputs := makeInputs(sizes)
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"no schema", Request{Inputs: inputs, Pair: pairIDs}, ErrNoSchema},
		{"no pair func", Request{Schema: schema, Inputs: inputs}, ErrNoPairFunc},
		{"a2a without inputs", Request{Schema: schema, Pair: pairIDs}, ErrBadInputs},
		{"a2a with x2y inputs", Request{Schema: schema, Inputs: inputs, XInputs: inputs, YInputs: inputs, Pair: pairIDs}, ErrBadInputs},
		{"too few inputs", Request{Schema: schema, Inputs: inputs[:2], Pair: pairIDs}, ErrBadInputs},
	}
	for _, tc := range cases {
		if _, err := Run(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	x2ySchema := solveX2Y(t, []core.Size{2, 2}, []core.Size{1, 1}, 6)
	if _, err := Run(Request{Schema: x2ySchema, Inputs: inputs, Pair: pairIDs}); !errors.Is(err, ErrBadInputs) {
		t.Errorf("x2y schema with a2a inputs: err = %v, want ErrBadInputs", err)
	}
}

// TestRunSkipsDuplicatedMember runs a schema that lists one input twice in
// a reducer. Both copies are shipped and charged, but the reducer processes
// the input once, so no pair is processed twice and the audit passes.
func TestRunSkipsDuplicatedMember(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{2, 2, 2, 2})
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 8}
	ms.AddReducerA2A(set, []int{0, 1, 2})
	ms.AddReducerA2A(set, []int{0, 3})
	ms.AddReducerA2A(set, []int{1, 3})
	ms.AddReducerA2A(set, []int{2, 3})
	ms.Reducers[1] = core.Reducer{Inputs: []int{0, 3, 3}, Load: 6}
	res, err := Run(Request{Name: "dup-member", Schema: ms, Inputs: makeInputs(set.Sizes()), Pair: pairIDs})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Audited || res.PairsProcessed != 6 || len(res.Output) != 6 {
		t.Fatalf("audited=%v pairs=%d output=%d, want true/6/6", res.Audited, res.PairsProcessed, len(res.Output))
	}
	if res.Counters.ShuffleRecords != 10 {
		t.Errorf("ShuffleRecords = %d, want 10 (the doubled member ships twice)", res.Counters.ShuffleRecords)
	}
}

func TestRunPairErrorPropagates(t *testing.T) {
	sizes := []core.Size{2, 2, 2}
	schema := solveA2A(t, sizes, 6)
	boom := errors.New("boom")
	_, err := Run(Request{
		Name:   "failing",
		Schema: schema,
		Inputs: makeInputs(sizes),
		Pair:   func(a, b Record, emit func([]byte)) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Errorf("pair error not propagated: %v", err)
	}
}

func TestRunPairDataRoundTrips(t *testing.T) {
	// Data containing the framing separator must survive intact.
	inputs := [][]byte{[]byte("al|pha"), []byte("be|ta"), []byte("ga|mma")}
	sizes := make([]core.Size, len(inputs))
	for i, d := range inputs {
		sizes[i] = core.Size(len(d))
	}
	schema := solveA2A(t, sizes, 20)
	res, err := Run(Request{
		Name:   "roundtrip",
		Schema: schema,
		Inputs: inputs,
		Pair: func(a, b Record, emit func([]byte)) error {
			if !bytes.Equal(a.Data, inputs[a.ID]) || !bytes.Equal(b.Data, inputs[b.ID]) {
				return fmt.Errorf("data mismatch: %q/%q", a.Data, b.Data)
			}
			emit([]byte(string(a.Data) + "+" + string(b.Data)))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 3 {
		t.Fatalf("emitted %d records, want 3", len(res.Output))
	}
	joined := make([]string, len(res.Output))
	for i, r := range res.Output {
		joined[i] = string(r)
	}
	sort.Strings(joined)
	if !strings.Contains(strings.Join(joined, " "), "al|pha+be|ta") {
		t.Errorf("outputs = %v", joined)
	}
}

// TestCopyBytesMatchesSeedFrame pins the shuffle accounting to the wire
// frame the counters are defined by: reducer tag "r<r>", then the side/ID
// header "<side>|<id>|", then the payload.
func TestCopyBytesMatchesSeedFrame(t *testing.T) {
	for _, tc := range []struct {
		side    string
		r, id   int
		payload string
	}{
		{"a", 0, 0, ""},
		{"x", 12, 12345, "payload"},
		{"y", 999, 7, "with|pipes|inside"},
		{"a", 1000, 100, "0123456789"},
	} {
		frame := fmt.Sprintf("r%d%s|%d|%s", tc.r, tc.side, tc.id, tc.payload)
		if got := mr.CopyBytes(tc.r, headerBytes(tc.id), len(tc.payload)); got != int64(len(frame)) {
			t.Errorf("copy of %q charged %d bytes, frame has %d", frame, got, len(frame))
		}
	}
}

func TestRunBatchExecutesAllJobs(t *testing.T) {
	var reqs []Request
	for i := 0; i < 12; i++ {
		sizes := []core.Size{3, 3, 2, 2, 4, 1}
		reqs = append(reqs, Request{
			Name:   fmt.Sprintf("job-%d", i),
			Schema: solveA2A(t, sizes, core.Size(10+i%3)),
			Inputs: makeInputs(sizes),
			Pair:   pairIDs,
		})
	}
	results, err := RunBatch(context.Background(), reqs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(results), len(reqs))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("job %d has no result", i)
		}
		if res.PairsProcessed != 15 {
			t.Errorf("job %d processed %d pairs, want 15", i, res.PairsProcessed)
		}
		if !res.Audited {
			t.Errorf("job %d was not audited", i)
		}
	}
}

func TestRunBatchAggregatesPerJobFailures(t *testing.T) {
	sizes := []core.Size{2, 2, 2}
	good := Request{Name: "good", Schema: solveA2A(t, sizes, 6), Inputs: makeInputs(sizes), Pair: pairIDs}
	bad := Request{Name: "bad", Inputs: makeInputs(sizes), Pair: pairIDs} // no schema
	results, err := RunBatch(context.Background(), []Request{good, bad, good}, BatchOptions{Workers: 2})
	if !errors.Is(err, ErrNoSchema) {
		t.Errorf("batch error = %v, want ErrNoSchema", err)
	}
	if results[0] == nil || results[2] == nil {
		t.Error("good jobs should have results despite the failing one")
	}
	if results[1] != nil {
		t.Error("failed job should have a nil result")
	}
	if err != nil && !strings.Contains(err.Error(), `batch job 1 ("bad")`) {
		t.Errorf("error does not name the failing job: %v", err)
	}
}

func TestRunBatchHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sizes := []core.Size{2, 2}
	req := Request{Name: "c", Schema: solveA2A(t, sizes, 6), Inputs: makeInputs(sizes), Pair: pairIDs}
	_, err := RunBatch(ctx, []Request{req, req}, BatchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunBatchEmpty(t *testing.T) {
	results, err := RunBatch(context.Background(), nil, BatchOptions{})
	if err != nil || len(results) != 0 {
		t.Errorf("empty batch = %v, %v", results, err)
	}
}
