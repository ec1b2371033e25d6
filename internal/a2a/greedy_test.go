package a2a

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func TestGreedyValidOnSmallInstance(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{3, 1, 4, 1, 5, 2})
	ms, err := Greedy(set, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.ValidateA2A(set); err != nil {
		t.Errorf("ValidateA2A: %v", err)
	}
}

func TestGreedyDegenerate(t *testing.T) {
	single := core.MustNewInputSet([]core.Size{5})
	ms, err := Greedy(single, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 0 {
		t.Errorf("single input: %d reducers, want 0", ms.NumReducers())
	}
}

func TestGreedyInfeasible(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{9, 9})
	if _, err := Greedy(set, 10); !errors.Is(err, core.ErrInfeasible) {
		t.Errorf("Greedy = %v, want ErrInfeasible", err)
	}
}

func TestGreedySingleReducerWhenEverythingFits(t *testing.T) {
	set := core.MustNewInputSet([]core.Size{1, 2, 3})
	ms, err := Greedy(set, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumReducers() != 1 {
		t.Errorf("reducers = %d, want 1", ms.NumReducers())
	}
}

func TestGreedyRandomInstancesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(40)
		q := core.Size(20 + rng.Intn(40))
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(1 + rng.Int63n(int64(q/2)))
		}
		set := core.MustNewInputSet(sizes)
		ms, err := Greedy(set, q)
		if err != nil {
			t.Fatalf("sizes=%v q=%d: %v", sizes, q, err)
		}
		if err := ms.ValidateA2A(set); err != nil {
			t.Fatalf("sizes=%v q=%d invalid: %v", sizes, q, err)
		}
		lb := LowerBounds(set, q)
		if ms.NumReducers() < lb.Reducers {
			t.Fatalf("greedy used %d reducers, below the lower bound %d", ms.NumReducers(), lb.Reducers)
		}
	}
}

func TestCoverageBookkeeping(t *testing.T) {
	c := newCoverage(4)
	if c.remaining != 6 {
		t.Fatalf("remaining = %d, want 6", c.remaining)
	}
	c.cover(0, 1)
	c.cover(1, 0) // idempotent
	if c.remaining != 5 {
		t.Errorf("remaining = %d, want 5", c.remaining)
	}
	if !c.row(0).Contains(1) || !c.row(1).Contains(0) {
		t.Error("pair (0,1) should be covered in both rows")
	}
	c.cover(2, 2) // self pairs are trivially covered
	if c.remaining != 5 {
		t.Errorf("covering a self pair changed remaining to %d", c.remaining)
	}
	i, j := c.firstUncovered()
	if i != 0 || j != 2 {
		t.Errorf("firstUncovered = (%d,%d), want (0,2)", i, j)
	}
	c.cover(0, 2)
	c.cover(0, 3)
	i, j = c.firstUncovered()
	if i != 1 || j != 2 {
		t.Errorf("firstUncovered = (%d,%d), want (1,2)", i, j)
	}
}
