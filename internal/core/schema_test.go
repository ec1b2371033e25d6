package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestProblemString(t *testing.T) {
	if ProblemA2A.String() != "A2A" {
		t.Errorf("ProblemA2A.String() = %q", ProblemA2A.String())
	}
	if ProblemX2Y.String() != "X2Y" {
		t.Errorf("ProblemX2Y.String() = %q", ProblemX2Y.String())
	}
	if got := Problem(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown problem String() = %q", got)
	}
}

func TestAddReducerA2AComputesLoadAndSorts(t *testing.T) {
	set := MustNewInputSet([]Size{5, 3, 2})
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 10}
	ms.AddReducerA2A(set, []int{2, 0})
	if ms.NumReducers() != 1 {
		t.Fatalf("NumReducers() = %d, want 1", ms.NumReducers())
	}
	r := ms.Reducers[0]
	if r.Load != 7 {
		t.Errorf("Load = %d, want 7", r.Load)
	}
	if r.Inputs[0] != 0 || r.Inputs[1] != 2 {
		t.Errorf("Inputs = %v, want sorted [0 2]", r.Inputs)
	}
}

func TestValidateA2AValid(t *testing.T) {
	set := MustNewInputSet([]Size{2, 2, 2, 2})
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 8}
	ms.AddReducerA2A(set, []int{0, 1, 2, 3})
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A() = %v, want nil", err)
	}
}

func TestValidateA2ASingleInputNeedsNoReducer(t *testing.T) {
	set := MustNewInputSet([]Size{5})
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 10}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("single-input empty schema should be valid, got %v", err)
	}
}

func TestValidateA2AUncoveredPair(t *testing.T) {
	set := MustNewInputSet([]Size{2, 2, 2})
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 8}
	ms.AddReducerA2A(set, []int{0, 1})
	err := ms.ValidateA2A(set)
	if !errors.Is(err, ErrPairUncovered) {
		t.Errorf("ValidateA2A() = %v, want ErrPairUncovered", err)
	}
}

func TestValidateA2ACapacityExceeded(t *testing.T) {
	set := MustNewInputSet([]Size{5, 5})
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 8}
	ms.AddReducerA2A(set, []int{0, 1})
	err := ms.ValidateA2A(set)
	if !errors.Is(err, ErrCapacityExceeded) {
		t.Errorf("ValidateA2A() = %v, want ErrCapacityExceeded", err)
	}
}

func TestValidateA2AUnknownInput(t *testing.T) {
	set := MustNewInputSet([]Size{2, 2})
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 8,
		Reducers: []Reducer{{Inputs: []int{0, 5}, Load: 4}}}
	err := ms.ValidateA2A(set)
	if !errors.Is(err, ErrUnknownInput) {
		t.Errorf("ValidateA2A() = %v, want ErrUnknownInput", err)
	}
}

func TestValidateA2AWrongProblem(t *testing.T) {
	set := MustNewInputSet([]Size{2, 2})
	ms := &MappingSchema{Problem: ProblemX2Y, Capacity: 8}
	if err := ms.ValidateA2A(set); err == nil {
		t.Error("ValidateA2A on an X2Y schema should fail")
	}
}

func TestValidateA2AStaleLoadCaught(t *testing.T) {
	set := MustNewInputSet([]Size{6, 6})
	// Lie about the load: recorded 4 but the true sum is 12 > q.
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 8,
		Reducers: []Reducer{{Inputs: []int{0, 1}, Load: 4}}}
	if err := ms.ValidateA2A(set); !errors.Is(err, ErrCapacityExceeded) {
		t.Errorf("stale load not caught: %v", err)
	}
}

func TestValidateX2YValid(t *testing.T) {
	xs := MustNewInputSet([]Size{2, 3})
	ys := MustNewInputSet([]Size{1, 1, 1})
	ms := &MappingSchema{Problem: ProblemX2Y, Capacity: 10}
	ms.AddReducerX2Y(xs, ys, []int{0, 1}, []int{0, 1, 2})
	if err := ms.ValidateX2Y(xs, ys); err != nil {
		t.Errorf("ValidateX2Y() = %v, want nil", err)
	}
	if ms.Reducers[0].Load != 8 {
		t.Errorf("Load = %d, want 8", ms.Reducers[0].Load)
	}
}

func TestValidateX2YUncovered(t *testing.T) {
	xs := MustNewInputSet([]Size{2, 3})
	ys := MustNewInputSet([]Size{1, 1})
	ms := &MappingSchema{Problem: ProblemX2Y, Capacity: 10}
	ms.AddReducerX2Y(xs, ys, []int{0}, []int{0, 1})
	err := ms.ValidateX2Y(xs, ys)
	if !errors.Is(err, ErrPairUncovered) {
		t.Errorf("ValidateX2Y() = %v, want ErrPairUncovered", err)
	}
}

func TestValidateX2YCapacityExceeded(t *testing.T) {
	xs := MustNewInputSet([]Size{6})
	ys := MustNewInputSet([]Size{6})
	ms := &MappingSchema{Problem: ProblemX2Y, Capacity: 10}
	ms.AddReducerX2Y(xs, ys, []int{0}, []int{0})
	if err := ms.ValidateX2Y(xs, ys); !errors.Is(err, ErrCapacityExceeded) {
		t.Errorf("ValidateX2Y() = %v, want ErrCapacityExceeded", err)
	}
}

func TestValidateX2YUnknownInput(t *testing.T) {
	xs := MustNewInputSet([]Size{2})
	ys := MustNewInputSet([]Size{2})
	ms := &MappingSchema{Problem: ProblemX2Y, Capacity: 10,
		Reducers: []Reducer{{XInputs: []int{0}, YInputs: []int{3}, Load: 4}}}
	if err := ms.ValidateX2Y(xs, ys); !errors.Is(err, ErrUnknownInput) {
		t.Errorf("ValidateX2Y() = %v, want ErrUnknownInput", err)
	}
	ms2 := &MappingSchema{Problem: ProblemX2Y, Capacity: 10,
		Reducers: []Reducer{{XInputs: []int{-1}, YInputs: []int{0}, Load: 4}}}
	if err := ms2.ValidateX2Y(xs, ys); !errors.Is(err, ErrUnknownInput) {
		t.Errorf("ValidateX2Y() negative X = %v, want ErrUnknownInput", err)
	}
}

func TestValidateX2YWrongProblem(t *testing.T) {
	xs := MustNewInputSet([]Size{2})
	ys := MustNewInputSet([]Size{2})
	ms := &MappingSchema{Problem: ProblemA2A, Capacity: 10}
	if err := ms.ValidateX2Y(xs, ys); err == nil {
		t.Error("ValidateX2Y on an A2A schema should fail")
	}
}

func TestPairSet(t *testing.T) {
	p := newPairSet(5)
	if p.count() != 0 {
		t.Errorf("fresh pairSet count = %d", p.count())
	}
	p.add(1, 3)
	p.add(3, 1) // same pair, order-insensitive
	p.add(0, 4)
	p.add(2, 2) // self pair ignored
	if !p.has(1, 3) || !p.has(3, 1) {
		t.Error("pair (1,3) not recorded")
	}
	if !p.has(0, 4) {
		t.Error("pair (0,4) not recorded")
	}
	if p.has(0, 1) {
		t.Error("pair (0,1) falsely recorded")
	}
	if p.count() != 2 {
		t.Errorf("count = %d, want 2", p.count())
	}
}

func TestPairSetDenseIndexing(t *testing.T) {
	// Every pair must map to a distinct index in [0, m(m-1)/2).
	m := 20
	p := newPairSet(m)
	seen := map[int]bool{}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			idx := p.index(i, j)
			if idx < 0 || idx >= m*(m-1)/2 {
				t.Fatalf("index(%d,%d) = %d out of range", i, j, idx)
			}
			if seen[idx] {
				t.Fatalf("index(%d,%d) = %d collides", i, j, idx)
			}
			seen[idx] = true
		}
	}
}

// Property-style test: a randomly generated valid covering is accepted and a
// covering with one reducer removed is rejected (when that removal uncovers a
// pair).
func TestValidateA2ARandomSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		m := 3 + rng.Intn(8)
		sizes := make([]Size, m)
		for i := range sizes {
			sizes[i] = Size(1 + rng.Intn(5))
		}
		set := MustNewInputSet(sizes)
		q := set.TotalSize() // everything fits in one reducer
		ms := &MappingSchema{Problem: ProblemA2A, Capacity: q}
		// Cover every pair with its own reducer: trivially valid.
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				ms.AddReducerA2A(set, []int{i, j})
			}
		}
		if err := ms.ValidateA2A(set); err != nil {
			t.Fatalf("pairwise schema invalid: %v", err)
		}
		// Dropping any single reducer uncovers exactly that pair.
		dropped := *ms
		dropped.Reducers = ms.Reducers[1:]
		if err := dropped.ValidateA2A(set); !errors.Is(err, ErrPairUncovered) {
			t.Fatalf("dropping a pair reducer should uncover a pair, got %v", err)
		}
	}
}

func TestRenamed(t *testing.T) {
	ms := &MappingSchema{Problem: ProblemX2Y, Capacity: 9, Algorithm: "x", Reducers: []Reducer{
		{XInputs: []int{0, 1}, YInputs: []int{2}, Load: 7},
		{XInputs: []int{2}, YInputs: []int{0, 1}, Load: 5},
	}}
	got := ms.Renamed([]int{2, 0, 1}, []int{1, 2, 0}, true)
	want := []Reducer{
		{XInputs: []int{0}, YInputs: []int{0, 2}, Load: 7},
		{XInputs: []int{1, 2}, YInputs: []int{1}, Load: 5},
	}
	if !reflect.DeepEqual(got.Reducers, want) || got.Capacity != 9 || got.Algorithm != "x" {
		t.Fatalf("Renamed = %+v, want reducers %+v", got, want)
	}
	// Lists share one arena but are capped: an append reallocates.
	_ = append(got.Reducers[0].YInputs, 99)
	if !reflect.DeepEqual(got.Reducers[1], want[1]) {
		t.Fatalf("append to reducer 0 clobbered reducer 1: %+v", got.Reducers[1])
	}
	if ms.Reducers[0].XInputs[0] != 0 {
		t.Fatal("Renamed modified its receiver")
	}
}
