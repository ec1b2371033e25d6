package mr

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// wordOwner is the reducer that counts a word.
func wordOwner(w string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(w))
	return int(h.Sum32() % uint32(n))
}

// wordCountJob counts words on n reducers: Route ships each line to the
// reducers owning its words, and each reducer counts the words it owns,
// emitting "word=count" in word order.
func wordCountJob(n int) *Job {
	return &Job{
		Name:        "wordcount",
		NumReducers: n,
		Route: func(_ int, rec []byte) (Route, error) {
			var rs []int
			for _, w := range strings.Fields(string(rec)) {
				if r := wordOwner(w, n); !slices.Contains(rs, r) {
					rs = append(rs, r)
				}
			}
			return Route{Value: rec, Reducers: rs}, nil
		},
		Reduce: func(r int, refs []Ref, emit func([]byte)) error {
			counts := map[string]int{}
			for _, ref := range refs {
				for _, w := range strings.Fields(string(ref.Value)) {
					if wordOwner(w, n) == r {
						counts[w]++
					}
				}
			}
			words := make([]string, 0, len(counts))
			for w := range counts {
				words = append(words, w)
			}
			sort.Strings(words)
			for _, w := range words {
				emit([]byte(fmt.Sprintf("%s=%d", w, counts[w])))
			}
			return nil
		},
	}
}

// fixedJob routes record idx to routes[idx] behind a header of the given
// size; each reducer emits "<r>:<idx>,<idx>,..." over the copies it got.
func fixedJob(routes [][]int, header int) *Job {
	return &Job{
		Name:        "fixed",
		NumReducers: 2,
		Route: func(idx int, rec []byte) (Route, error) {
			return Route{Value: rec, Header: header, Reducers: routes[idx]}, nil
		},
		Reduce: func(r int, refs []Ref, emit func([]byte)) error {
			ids := make([]string, len(refs))
			for i, ref := range refs {
				ids[i] = strconv.Itoa(ref.Index)
			}
			emit([]byte(fmt.Sprintf("%d:%s", r, strings.Join(ids, ","))))
			return nil
		},
	}
}

func records(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func runWordCount(t *testing.T, job *Job, inputs []string) map[string]int {
	t.Helper()
	res, err := Run(context.Background(), job, records(inputs...))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, rec := range res.FlatOutput() {
		parts := strings.SplitN(string(rec), "=", 2)
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatalf("bad output record %q", rec)
		}
		counts[parts[0]] = n
	}
	return counts
}

func TestWordCountEndToEnd(t *testing.T) {
	counts := runWordCount(t, wordCountJob(3), []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	})
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, counts[k], v)
		}
	}
	if len(counts) != len(want) {
		t.Errorf("got %d distinct words, want %d", len(counts), len(want))
	}
}

func TestWordCountDeterministicSequential(t *testing.T) {
	job := wordCountJob(4)
	job.Workers = 1
	a := runWordCount(t, job, []string{"a b c a", "b c d"})
	b := runWordCount(t, job, []string{"a b c a", "b c d"})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic output sizes %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("non-deterministic count for %q: %d vs %d", k, v, b[k])
		}
	}
}

func TestCopyBytes(t *testing.T) {
	for _, tc := range []struct {
		r, header, value int
		want             int64
	}{
		{0, 0, 0, 2},       // "r0"
		{9, 3, 5, 10},      // "r9" + 3 + 5
		{10, 4, 0, 7},      // "r10" + 4
		{12345, 0, 1, 7},   // "r12345" + 1
		{0, 3 + 2, 16, 23}, // "r0" + "a|17|" + 16 bytes
	} {
		if got := CopyBytes(tc.r, tc.header, tc.value); got != tc.want {
			t.Errorf("CopyBytes(%d,%d,%d) = %d, want %d", tc.r, tc.header, tc.value, got, tc.want)
		}
	}
}

func TestCountersAccounting(t *testing.T) {
	// Record 0 -> {0}, record 1 -> {0,1}, record 2 -> {1}, all behind a
	// 2-byte header: copies cost "r0"/"r1" (2) + 2 + the value.
	job := fixedJob([][]int{{0}, {0, 1}, {1}}, 2)
	res, err := Run(context.Background(), job, records("a", "bb", "ccc"))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.MapInputRecords != 3 {
		t.Errorf("MapInputRecords = %d, want 3", c.MapInputRecords)
	}
	if c.MapOutputRecords != 4 || c.ShuffleRecords != 4 {
		t.Errorf("records = %d/%d, want 4/4", c.MapOutputRecords, c.ShuffleRecords)
	}
	if c.MapOutputBytes != 24 || c.ShuffleBytes != 24 {
		t.Errorf("bytes = %d/%d, want 24/24", c.MapOutputBytes, c.ShuffleBytes)
	}
	if want := []int64{5 + 6, 6 + 7}; !slices.Equal(c.ReducerLoads, want) {
		t.Errorf("ReducerLoads = %v, want %v", c.ReducerLoads, want)
	}
	if c.MaxReducerLoad != 13 {
		t.Errorf("MaxReducerLoad = %d, want 13", c.MaxReducerLoad)
	}
	if c.ReduceInputKeys != 2 {
		t.Errorf("ReduceInputKeys = %d, want 2", c.ReduceInputKeys)
	}
	if c.ReduceOutputRecords != 2 || c.ReduceOutputBytes != int64(len("0:0,1")+len("1:1,2")) {
		t.Errorf("reduce output = %d records / %d bytes", c.ReduceOutputRecords, c.ReduceOutputBytes)
	}
	var loadSum int64
	for _, l := range c.ReducerLoads {
		loadSum += l
	}
	if loadSum != c.ShuffleBytes {
		t.Errorf("reducer loads sum %d != shuffle bytes %d", loadSum, c.ShuffleBytes)
	}
}

func TestJobValidation(t *testing.T) {
	ctx := context.Background()
	good := wordCountJob(1)
	for name, job := range map[string]*Job{
		"no route":    {Reduce: good.Reduce, NumReducers: 1},
		"no reduce":   {Route: good.Route, NumReducers: 1},
		"no reducers": {Route: good.Route, Reduce: good.Reduce},
	} {
		if _, err := Run(ctx, job, nil); !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	job := wordCountJob(1)
	job.Route = func(int, []byte) (Route, error) { return Route{}, errors.New("boom") }
	if _, err := Run(context.Background(), job, records("x")); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("route error not propagated: %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	job := wordCountJob(2)
	job.Reduce = func(int, []Ref, func([]byte)) error { return errors.New("kaboom") }
	if _, err := Run(context.Background(), job, records("x y")); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("reduce error not propagated: %v", err)
	}
}

func TestReducerCapacityEnforced(t *testing.T) {
	job := wordCountJob(1)
	job.ReducerCapacity = 3 // far below the shuffle volume
	_, err := Run(context.Background(), job, records("alpha beta gamma"))
	if !errors.Is(err, ErrOverCapacity) {
		t.Errorf("capacity violation not reported: %v", err)
	}
}

// TestOutOfRangeRouteFails asserts a route naming a reducer outside
// [0, NumReducers) fails the run with ErrBadRoute instead of being
// delivered anywhere.
func TestOutOfRangeRouteFails(t *testing.T) {
	for _, bad := range []int{-1, 2, 1 << 20} {
		job := fixedJob([][]int{{0}, {1, bad}}, 0)
		res, err := Run(context.Background(), job, records("a", "b"))
		if !errors.Is(err, ErrBadRoute) {
			t.Errorf("route to %d: err = %v, want ErrBadRoute", bad, err)
		}
		if res != nil {
			t.Errorf("route to %d: got a result %+v", bad, res.Counters)
		}
	}
}

func TestCountersMerge(t *testing.T) {
	a := Counters{
		MapInputRecords: 2, MapOutputRecords: 4, MapOutputBytes: 40,
		ShuffleRecords: 4, ShuffleBytes: 20,
		ReduceInputKeys: 2, ReduceOutputRecords: 2, ReduceOutputBytes: 10,
		ReducerLoads: []int64{12, 8}, MaxReducerLoad: 12,
	}
	b := Counters{
		MapInputRecords: 1, MapOutputRecords: 3, MapOutputBytes: 30,
		ShuffleRecords: 1, ShuffleBytes: 30,
		ReduceInputKeys: 1, ReduceOutputRecords: 1, ReduceOutputBytes: 5,
		ReducerLoads: []int64{30}, MaxReducerLoad: 30,
	}
	a.Merge(&b)
	if a.MapInputRecords != 3 || a.ShuffleRecords != 5 || a.ShuffleBytes != 50 {
		t.Errorf("merged sums wrong: %+v", a)
	}
	if len(a.ReducerLoads) != 3 || a.ReducerLoads[2] != 30 {
		t.Errorf("merged loads = %v", a.ReducerLoads)
	}
	if a.MaxReducerLoad != 30 {
		t.Errorf("merged MaxReducerLoad = %d, want 30", a.MaxReducerLoad)
	}
	var sum int64
	for _, l := range a.ReducerLoads {
		sum += l
	}
	if sum != a.ShuffleBytes {
		t.Errorf("merged loads sum %d != shuffle bytes %d", sum, a.ShuffleBytes)
	}
}

func TestAssignmentsA2A(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{1, 1, 1})
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 2}
	ms.AddReducerA2A(set, []int{0, 1})
	ms.AddReducerA2A(set, []int{0, 2})
	ms.AddReducerA2A(set, []int{1, 2})
	assign := AssignmentsA2A(ms, 3)
	want := [][]int{{0, 1}, {0, 2}, {1, 2}}
	for i := range want {
		if !slices.Equal(assign[i], want[i]) {
			t.Errorf("assignments[%d] = %v, want %v", i, assign[i], want[i])
		}
	}
}

func TestAssignmentsX2Y(t *testing.T) {
	xs := core.MustNewInputSet([]core.Size{1, 1})
	ys := core.MustNewInputSet([]core.Size{1})
	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: 4}
	ms.AddReducerX2Y(xs, ys, []int{0}, []int{0})
	ms.AddReducerX2Y(xs, ys, []int{1}, []int{0})
	x, y := AssignmentsX2Y(ms, 2, 1)
	if len(x[0]) != 1 || x[0][0] != 0 || len(x[1]) != 1 || x[1][0] != 1 {
		t.Errorf("x assignments = %v", x)
	}
	if len(y[0]) != 2 {
		t.Errorf("y assignments = %v, want both reducers", y)
	}
}

func TestSchemaDrivenJobRoutesCopiesExactly(t *testing.T) {
	// Three inputs, schema: pairwise reducers. The route replicates each
	// input to its assigned reducers; every reducer must see exactly the two
	// inputs of its schema reducer, in source order.
	set := core.MustNewInputSet([]core.Size{1, 1, 1})
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: 2}
	ms.AddReducerA2A(set, []int{0, 1})
	ms.AddReducerA2A(set, []int{0, 2})
	ms.AddReducerA2A(set, []int{1, 2})
	job := fixedJob(AssignmentsA2A(ms, 3), 0)
	job.NumReducers = ms.NumReducers()
	res, err := Run(context.Background(), job, records("x", "y", "z"))
	if err != nil {
		t.Fatal(err)
	}
	got := res.FlatOutput()
	want := []string{"0:0,1", "1:0,2", "2:1,2"}
	if len(got) != len(want) {
		t.Fatalf("output = %q, want %q", got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("reducer %d output = %q, want %q", i, got[i], want[i])
		}
	}
	if res.Counters.ShuffleRecords != 6 {
		t.Errorf("ShuffleRecords = %d, want 6 (each input replicated twice)", res.Counters.ShuffleRecords)
	}
}

func TestRunWithNoInputs(t *testing.T) {
	res, err := Run(context.Background(), wordCountJob(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapInputRecords != 0 || len(res.FlatOutput()) != 0 {
		t.Errorf("empty run produced output: %+v", res.Counters)
	}
}

func TestParallelAndSequentialAgree(t *testing.T) {
	inputs := make([][]byte, 50)
	for i := range inputs {
		inputs[i] = []byte(fmt.Sprintf("w%d shared w%d", i%7, (i*3)%5))
	}
	seq := wordCountJob(5)
	seq.Workers = 1
	par := wordCountJob(5)
	par.Workers = 5

	resSeq, err := Run(context.Background(), seq, inputs)
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := Run(context.Background(), par, inputs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := flatStrings(resSeq), flatStrings(resPar)
	if !slices.Equal(a, b) {
		t.Fatalf("parallel output %v differs from sequential %v", b, a)
	}
	if resSeq.Counters.ShuffleBytes != resPar.Counters.ShuffleBytes {
		t.Errorf("shuffle volume differs: %d vs %d", resSeq.Counters.ShuffleBytes, resPar.Counters.ShuffleBytes)
	}
}

// TestReduceGoroutinesBounded runs a 2,000-reducer job on two workers and
// samples the goroutine count inside every Reduce call: the pool, not the
// reducer count, bounds it.
func TestReduceGoroutinesBounded(t *testing.T) {
	const reducers, workers = 2000, 2
	routes := make([][]int, reducers)
	inputs := make([][]byte, reducers)
	for i := range routes {
		routes[i] = []int{i}
		inputs[i] = []byte{byte(i)}
	}
	job := fixedJob(routes, 0)
	job.NumReducers = reducers
	job.Workers = workers
	var mu sync.Mutex
	peak, calls := 0, 0
	reduce := job.Reduce
	job.Reduce = func(r int, refs []Ref, emit func([]byte)) error {
		n := runtime.NumGoroutine()
		mu.Lock()
		peak = max(peak, n)
		calls++
		mu.Unlock()
		return reduce(r, refs, emit)
	}
	base := runtime.NumGoroutine()
	if _, err := Run(context.Background(), job, inputs); err != nil {
		t.Fatal(err)
	}
	if calls != reducers {
		t.Fatalf("Reduce ran %d times, want %d", calls, reducers)
	}
	if limit := base + workers + 2; peak > limit {
		t.Fatalf("peak goroutines during reduce = %d, want <= %d (baseline %d + %d workers + 2)",
			peak, limit, base, workers)
	}
}
