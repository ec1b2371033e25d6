package a2a

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestExactSingleReducerWhenEverythingFits(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{2, 3, 4})
	ms, err := Exact(set, 10, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 1 {
		t.Errorf("reducers = %d, want 1", ms.NumReducers())
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestExactKnownOptimum(t *testing.T) {
	// 4 unit inputs, q = 2: each reducer covers exactly one pair, so the
	// optimum is C(4,2) = 6 reducers.
	set, _ := core.UniformInputSet(4, 1)
	ms, err := Exact(set, 2, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 6 {
		t.Errorf("reducers = %d, want 6", ms.NumReducers())
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestExactKnownOptimumTriples(t *testing.T) {
	// 6 unit inputs, q = 3: a reducer covers at most 3 pairs, 15 pairs total,
	// so at least 5 reducers; a resolvable design on 6 points achieves... the
	// exact solver must find the true optimum, which is at least 5 and at
	// most 7 (the paper's grouping algorithm would use C(6,2)/... here we
	// just check optimality against a brute lower bound and validity).
	set, _ := core.UniformInputSet(6, 1)
	ms, err := Exact(set, 3, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Fatalf("ValidateA2A: %v", err)
	}
	lb := LowerBounds(set, 3)
	if ms.NumReducers() < lb.Reducers {
		t.Errorf("exact solution %d below lower bound %d", ms.NumReducers(), lb.Reducers)
	}
	// Heuristics can never beat the exact solver.
	heur, err := Solve(set, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() > heur.NumReducers() {
		t.Errorf("exact %d reducers worse than heuristic %d", ms.NumReducers(), heur.NumReducers())
	}
}

func TestExactTooLarge(t *testing.T) {
	set, _ := core.UniformInputSet(40, 1)
	if _, err := Exact(set, 4, ExactOptions{}); !errors.Is(err, ErrTooLargeForExact) {
		t.Errorf("Exact = %v, want ErrTooLargeForExact", err)
	}
}

// TestExactTooLargeForWords: the search state is one machine word per input,
// so 65 inputs are rejected even when MaxInputs would allow them.
func TestExactTooLargeForWords(t *testing.T) {
	set, _ := core.UniformInputSet(65, 1)
	if _, err := Exact(set, 4, ExactOptions{MaxInputs: 100}); !errors.Is(err, ErrTooLargeForExact) {
		t.Errorf("Exact = %v, want ErrTooLargeForExact", err)
	}
}

func TestExactInfeasible(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{8, 8})
	if _, err := Exact(set, 10, ExactOptions{}); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("Exact = %v, want ErrInfeasible", err)
	}
}

func TestExactDegenerate(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{5})
	ms, err := Exact(set, 10, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("single input: %d reducers, want 0", ms.NumReducers())
	}
}

func TestExactNodeBudget(t *testing.T) {
	set, _ := core.UniformInputSet(10, 1)
	ms, err := Exact(set, 4, ExactOptions{MaxNodes: 10})
	if err != nil && !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("Exact = %v, want nil or ErrNodeBudget", err)
	}
	// Whatever came back must still be a valid schema (the incumbent).
	if verr := ms.ValidateA2A(set); verr != nil {
		t.Errorf("budget-limited schema invalid: %v", verr)
	}
}

func TestExactNeverWorseThanHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		m := 4 + rng.Intn(5) // 4..8 inputs keeps the search fast
		q := core.Size(8 + rng.Intn(10))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q)/2))
		}
		set := core.MustNewInputSet(sizes)
		exact, err := Exact(set, q, ExactOptions{})
		if err != nil && !errors.Is(err, ErrNodeBudget) {
			t.Fatalf("sizes=%v q=%d: %v", sizes, q, err)
		}
		if verr := exact.ValidateA2A(set); verr != nil {
			t.Fatalf("exact invalid for sizes=%v q=%d: %v", sizes, q, verr)
		}
		heur, err := Solve(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.NumReducers() > heur.NumReducers() {
			t.Errorf("sizes=%v q=%d: exact %d > heuristic %d", sizes, q, exact.NumReducers(), heur.NumReducers())
		}
		greedy, err := Greedy(set, q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.NumReducers() > greedy.NumReducers() {
			t.Errorf("sizes=%v q=%d: exact %d > greedy %d", sizes, q, exact.NumReducers(), greedy.NumReducers())
		}
		lb := LowerBounds(set, q)
		if exact.NumReducers() < lb.Reducers {
			t.Errorf("sizes=%v q=%d: exact %d below lower bound %d", sizes, q, exact.NumReducers(), lb.Reducers)
		}
	}
}
