package mr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// streamInputs builds a deterministic pseudo-random word corpus.
func streamInputs(records, wordsPerRecord int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, records)
	for i := range out {
		words := make([]string, wordsPerRecord)
		for j := range words {
			words[j] = fmt.Sprintf("w%03d", rng.Intn(40))
		}
		out[i] = []byte(strings.Join(words, " "))
	}
	return out
}

func runStream(t *testing.T, job *Job, inputs [][]byte, opts StreamOptions) *Result {
	t.Helper()
	res, err := RunStream(context.Background(), job, NewSliceSource(inputs), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpilledRunMatchesInMemoryRun is the spill-path property test: a tiny
// memory budget forces every reducer through run files, and the
// output must equal the unbounded in-memory run record for record.
func TestSpilledRunMatchesInMemoryRun(t *testing.T) {
	inputs := streamInputs(200, 8, 1)
	want := runStream(t, wordCountJob(7), inputs, StreamOptions{})
	if want.Counters.SpillRuns != 0 {
		t.Fatalf("unbounded run spilled %d runs", want.Counters.SpillRuns)
	}

	var spillCalls atomic.Int64
	got := runStream(t, wordCountJob(7), inputs, StreamOptions{
		MemoryBudget: 64, // bytes: far below the shuffle volume
		SpillDir:     t.TempDir(),
		OnSpill:      func(partition int, runBytes int64) { spillCalls.Add(1) },
	})
	if got.Counters.SpillRuns == 0 {
		t.Fatal("budgeted run did not spill")
	}
	if got.Counters.SpillPartitions == 0 || got.Counters.SpillBytes == 0 {
		t.Fatalf("spill counters incomplete: %+v", got.Counters)
	}
	if spillCalls.Load() != got.Counters.SpillRuns {
		t.Fatalf("OnSpill fired %d times for %d runs", spillCalls.Load(), got.Counters.SpillRuns)
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("partition count drifted: %d vs %d", len(got.Output), len(want.Output))
	}
	for p := range want.Output {
		if len(got.Output[p]) != len(want.Output[p]) {
			t.Fatalf("partition %d: %d records, in-memory run had %d", p, len(got.Output[p]), len(want.Output[p]))
		}
		for i := range want.Output[p] {
			if string(got.Output[p][i]) != string(want.Output[p][i]) {
				t.Fatalf("partition %d record %d: %q, in-memory run had %q",
					p, i, got.Output[p][i], want.Output[p][i])
			}
		}
	}
	// Shuffle accounting must be identical too: spilling is invisible to the
	// communication counters.
	if got.Counters.ShuffleBytes != want.Counters.ShuffleBytes ||
		got.Counters.ShuffleRecords != want.Counters.ShuffleRecords ||
		!reflect.DeepEqual(got.Counters.ReducerLoads, want.Counters.ReducerLoads) {
		t.Fatalf("shuffle counters drifted:\n  unbounded: %+v\n  budgeted:  %+v", want.Counters, got.Counters)
	}
}

func flatStrings(res *Result) []string {
	var out []string
	for _, rec := range res.FlatOutput() {
		out = append(out, string(rec))
	}
	return out
}

// TestRunStreamDeterministicUnderParallelism asserts the source-ordered
// per-reducer copies make output byte-identical across runs even with more
// reduce workers than cores.
func TestRunStreamDeterministicUnderParallelism(t *testing.T) {
	inputs := streamInputs(120, 5, 3)
	job := func() *Job {
		j := wordCountJob(6)
		j.Workers = 8
		// Emit every copy's provenance and value, so any reordering shows.
		j.Reduce = func(r int, refs []Ref, emit func([]byte)) error {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d:", r)
			for _, ref := range refs {
				fmt.Fprintf(&sb, "[%d]%s", ref.Index, ref.Value)
			}
			emit([]byte(sb.String()))
			return nil
		}
		return j
	}
	base := flatStrings(runStream(t, job(), inputs, StreamOptions{}))
	for i := 0; i < 5; i++ {
		again := flatStrings(runStream(t, job(), inputs, StreamOptions{}))
		if !reflect.DeepEqual(base, again) {
			t.Fatalf("run %d produced different output under parallelism", i)
		}
	}
	// And a budgeted (spilling) run agrees with the in-memory ones.
	spilled := runStream(t, job(), inputs, StreamOptions{MemoryBudget: 32, SpillDir: t.TempDir()})
	if !reflect.DeepEqual(base, flatStrings(spilled)) {
		t.Fatal("spilled run produced different output")
	}
}

// blockingSource yields a few records then blocks until its context dies,
// modelling a long streaming run.
type blockingSource struct {
	ctx   context.Context
	n     int
	limit int
}

func (s *blockingSource) Next() ([]byte, error) {
	if s.n < s.limit {
		s.n++
		return []byte(fmt.Sprintf("rec %d", s.n)), nil
	}
	<-s.ctx.Done()
	return nil, io.EOF
}

// TestRunStreamCancellation: a cancelled context must stop a long run
// promptly and clean up its spill files.
func TestRunStreamCancellation(t *testing.T) {
	spillDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	src := &blockingSource{ctx: ctx, limit: 500}
	job := wordCountJob(4)
	done := make(chan error, 1)
	go func() {
		_, err := RunStream(ctx, job, src, nil, StreamOptions{MemoryBudget: 16, SpillDir: spillDir})
		done <- err
	}()
	// Give the pipeline a moment to ingest (and spill) the finite prefix,
	// then cancel mid-run while the source is blocked.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunStream returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStream did not return promptly after cancellation")
	}
	// The run's private mr-spill-* directory must be gone.
	leftovers, err := filepath.Glob(filepath.Join(spillDir, "mr-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("spill directories leaked after cancellation: %v", leftovers)
	}
}

// TestRunStreamNoCallsInFlightAfterReturn cancels a run while a Source.Next
// or Sink.Write call is blocked and keeps blocking for a while after the
// cancel: RunStream must not return until that call has come back.
func TestRunStreamNoCallsInFlightAfterReturn(t *testing.T) {
	const lag = 50 * time.Millisecond
	for _, stage := range []string{"source", "sink"} {
		t.Run(stage, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var inFlight atomic.Int32
			blocked := make(chan struct{})
			var once sync.Once
			// block models a call that notices cancellation late.
			block := func() {
				inFlight.Add(1)
				defer inFlight.Add(-1)
				once.Do(func() { close(blocked) })
				<-ctx.Done()
				time.Sleep(lag)
			}
			n := 0
			src := SourceFunc(func() ([]byte, error) {
				if n == 10 {
					if stage == "source" {
						block()
					}
					return nil, io.EOF
				}
				n++
				return []byte("a b c"), nil
			})
			sink := SinkFunc(func(int, []byte) error {
				if stage == "sink" {
					block()
				}
				return nil
			})
			done := make(chan error, 1)
			go func() {
				_, err := RunStream(ctx, wordCountJob(3), src, sink, StreamOptions{})
				done <- err
			}()
			<-blocked
			cancel()
			err := <-done
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunStream returned %v, want context.Canceled", err)
			}
			if got := inFlight.Load(); got != 0 {
				t.Fatalf("%d %s call(s) still in flight after RunStream returned", got, stage)
			}
		})
	}
}

// TestRunStreamCancelDuringReduce cancels while a reduce task is running;
// the run must still unwind.
func TestRunStreamCancelDuringReduce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	job := wordCountJob(3)
	job.Reduce = func(int, []Ref, func([]byte)) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunStream(ctx, job, NewSliceSource(streamInputs(20, 4, 4)), nil, StreamOptions{})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunStream succeeded despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStream did not return after cancellation during reduce")
	}
}

// TestRunStreamSourceError asserts a failing source fails the run.
func TestRunStreamSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	n := 0
	src := SourceFunc(func() ([]byte, error) {
		n++
		if n > 3 {
			return nil, boom
		}
		return []byte("a b c"), nil
	})
	_, err := RunStream(context.Background(), wordCountJob(2), src, nil, StreamOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("RunStream returned %v, want the source error", err)
	}
}

// TestRunStreamSinkError asserts a failing sink fails the run.
func TestRunStreamSinkError(t *testing.T) {
	boom := errors.New("sink full")
	sink := SinkFunc(func(partition int, rec []byte) error { return boom })
	_, err := RunStream(context.Background(), wordCountJob(2),
		NewSliceSource(streamInputs(10, 3, 5)), sink, StreamOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("RunStream returned %v, want the sink error", err)
	}
}

// TestRunStreamSinkMatchesCollected asserts sink delivery covers exactly the
// collected output, with per-reducer order preserved.
func TestRunStreamSinkMatchesCollected(t *testing.T) {
	inputs := streamInputs(80, 4, 6)
	collected := runStream(t, wordCountJob(5), inputs, StreamOptions{})

	perPart := make([][]string, 5)
	sink := SinkFunc(func(partition int, rec []byte) error {
		perPart[partition] = append(perPart[partition], string(rec))
		return nil
	})
	res, err := RunStream(context.Background(), wordCountJob(5),
		NewSliceSource(inputs), sink, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With a sink the result carries counters but no materialized output.
	if res.Output != nil {
		t.Fatalf("sink run materialized output: %d partitions", len(res.Output))
	}
	for p := range collected.Output {
		want := make([]string, len(collected.Output[p]))
		for i, rec := range collected.Output[p] {
			want[i] = string(rec)
		}
		if !reflect.DeepEqual(perPart[p], want) {
			if len(want) == 0 && len(perPart[p]) == 0 {
				continue
			}
			t.Fatalf("partition %d: sink saw %v, collect saw %v", p, perPart[p], want)
		}
	}
}

// TestRunStreamStageHook asserts the tracing hook sees both phases.
func TestRunStreamStageHook(t *testing.T) {
	var mu sync.Mutex
	var events []string
	opts := StreamOptions{
		OnStage: func(stage string) func() {
			mu.Lock()
			events = append(events, stage+":start")
			mu.Unlock()
			return func() {
				mu.Lock()
				events = append(events, stage+":end")
				mu.Unlock()
			}
		},
	}
	runStream(t, wordCountJob(3), streamInputs(10, 3, 7), opts)
	want := []string{"map:start", "map:end", "reduce:start", "reduce:end"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("stage events = %v, want %v", events, want)
	}
}

// TestRunStreamNoSpillDirWithoutSpill asserts the temp directory is only
// created when something actually spills.
func TestRunStreamNoSpillDirWithoutSpill(t *testing.T) {
	dir := t.TempDir()
	runStream(t, wordCountJob(3), streamInputs(10, 3, 8), StreamOptions{SpillDir: dir})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unbounded run created %d entries in the spill dir", len(entries))
	}
}

// TestRunStreamConcurrentHammer runs many concurrent budgeted runs; under
// -race this shakes out data races between the reduce workers.
func TestRunStreamConcurrentHammer(t *testing.T) {
	inputs := streamInputs(100, 6, 9)
	want := flatStrings(runStream(t, wordCountJob(6), inputs, StreamOptions{}))
	dir := t.TempDir()
	const runs = 16
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := wordCountJob(6)
			job.Workers = 4
			res, err := RunStream(context.Background(), job,
				NewSliceSource(inputs), nil, StreamOptions{MemoryBudget: 128, SpillDir: dir})
			if err != nil {
				errs[i] = err
				return
			}
			if got := flatStrings(res); !reflect.DeepEqual(got, want) {
				errs[i] = fmt.Errorf("run %d output drifted", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, "mr-spill-*"))
	if len(leftovers) != 0 {
		t.Fatalf("spill directories leaked: %v", leftovers)
	}
}

// TestSpillRunRoundTrip exercises the run-file codec directly, including
// files that do not decode.
func TestSpillRunRoundTrip(t *testing.T) {
	refs := []Ref{
		{Index: 1, Value: []byte("2")},
		{Index: 0, Value: []byte("1")},
		{Index: 300, Value: nil},
		{Index: 7, Value: []byte("longer value")},
	}
	dir := t.TempDir()
	run, err := writeSpillRun(dir, 0, 0, refs)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(run.path); err != nil || fi.Size() != run.bytes {
		t.Fatalf("run file %v, want %d bytes (%v)", fi, run.bytes, err)
	}
	got, err := readSpillRun(run, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("read %d copies, wrote %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i].Index != refs[i].Index || string(got[i].Value) != string(refs[i].Value) {
			t.Fatalf("copy %d = %d/%q, want %d/%q", i, got[i].Index, got[i].Value, refs[i].Index, refs[i].Value)
		}
	}
	for name, data := range map[string][]byte{
		"truncated varint": {0x80},
		"value too long":   {0x01, 0x05, 'a'},
		"missing length":   {0x01},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := readSpillRun(spillRun{path: path}, nil); !errors.Is(err, ErrCorruptSpill) {
			t.Errorf("%s: err = %v, want ErrCorruptSpill", name, err)
		}
	}
}

// TestMergePairsAcrossRuns asserts a spilled reducer's copies come back as
// its runs in write order followed by the in-memory remainder: the copy
// sequence of an unbounded run.
func TestMergePairsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	r := &run{refs: make([][]Ref, 2), runs: make([][]spillRun, 2)}
	for seq, batch := range [][]Ref{
		{{Index: 0, Value: []byte("a")}, {Index: 2, Value: []byte("b")}},
		{{Index: 3, Value: []byte("c")}},
	} {
		sr, err := writeSpillRun(dir, 1, seq, batch)
		if err != nil {
			t.Fatal(err)
		}
		r.runs[1] = append(r.runs[1], sr)
	}
	r.refs[1] = []Ref{{Index: 5, Value: []byte("d")}}
	got, err := r.copies(1)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, ref := range got {
		order = append(order, fmt.Sprintf("%d%s", ref.Index, ref.Value))
	}
	if want := []string{"0a", "2b", "3c", "5d"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("merged copies = %v, want %v", order, want)
	}
}
