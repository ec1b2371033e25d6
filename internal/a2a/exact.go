package a2a

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// ErrTooLargeForExact is returned when the exact solver is asked to handle an
// instance with more inputs than its configured limit.
var ErrTooLargeForExact = errors.New("a2a: instance too large for the exact solver")

// ErrNodeBudget indicates the exact solver stopped at its node budget; the
// returned schema is the best one found (valid, but possibly not optimal).
var ErrNodeBudget = errors.New("a2a: exact solver node budget exhausted")

// maxExactInputs is the hard ceiling on Exact's instance size: the search
// keeps each reducer's membership and each input's coverage row in one
// uint64.
const maxExactInputs = 64

// ExactOptions configures the exact solver.
type ExactOptions struct {
	// MaxInputs caps the instance size; 0 means the default of 12. Instances
	// over 64 inputs are always rejected.
	MaxInputs int
	// MaxNodes caps the number of explored search nodes; 0 means the default
	// of 2 million.
	MaxNodes int
}

// Exact computes a minimum-reducer mapping schema by branch and bound. At
// every node it picks the lexicographically first uncovered pair and branches
// on all ways to cover it: adding the missing input(s) to an existing reducer
// that still has room, or opening a new reducer with exactly that pair.
// Branches that cannot beat the incumbent (seeded with the best heuristic
// schema) are pruned.
//
// The search state is machine words: one uint64 membership mask per open
// reducer and one uint64 coverage row per input, so instances over 64 inputs
// return ErrTooLargeForExact whatever MaxInputs says.
//
// The A2A mapping schema problem is NP-complete, so Exact is intended for the
// small instances used to measure approximation ratios (experiment T8).
func Exact(set *core.InputSet, q core.Size, opts ExactOptions) (*core.MappingSchema, error) {
	const algorithm = "a2a/exact"
	if opts.MaxInputs == 0 {
		opts.MaxInputs = 12
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 2_000_000
	}
	if limit := min(opts.MaxInputs, maxExactInputs); set.Len() > limit {
		return nil, fmt.Errorf("%w: %d inputs > limit %d", ErrTooLargeForExact, set.Len(), limit)
	}
	if set.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(set, q); err != nil {
		return nil, err
	}
	m := set.Len()
	if m == 1 {
		return emptySchema(q, algorithm), nil
	}
	if set.TotalSize() <= q {
		return singleReducer(set, q, algorithm), nil
	}

	// Incumbent: best heuristic schema available.
	incumbent, err := Solve(set, q)
	if err != nil {
		return nil, err
	}
	best := incumbent.NumReducers()
	bestSets := make([][]int, best)
	for i, r := range incumbent.Reducers {
		bestSets[i] = r.Inputs
	}

	pairs := m * (m - 1) / 2
	s := &exactSearch{
		sizes:    set.Sizes(),
		q:        q,
		m:        m,
		best:     best,
		bestSets: bestSets,
		maxNodes: opts.MaxNodes,
		lower:    LowerBounds(set, q).Reducers,
		members:  make([]uint64, best),
		loads:    make([]core.Size, best),
		// Every move covers at least one pair, so the tree is at most
		// pairs deep.
		frames: make([]uint64, (pairs+1)*m),
	}
	s.search(0, 0, pairs, 0)

	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: algorithm}
	for _, ids := range s.bestSets {
		ms.AddReducerA2A(set, ids)
	}
	if s.exhausted {
		return ms, ErrNodeBudget
	}
	return ms, nil
}

// exactSearch is the branch-and-bound state. members[r] is open reducer r's
// input mask and loads[r] its load. frames is a stack of coverage frames, m
// words each: word i of the frame at depth d holds the inputs already covered
// with input i. A move copies its frame one level down and edits the copy,
// so backtracking is just returning.
type exactSearch struct {
	sizes     []core.Size
	q         core.Size
	m         int
	best      int
	bestSets  [][]int
	nodes     int
	maxNodes  int
	exhausted bool
	lower     int
	members   []uint64
	loads     []core.Size
	frames    []uint64
}

// search explores assignments from the coverage frame at depth with n open
// reducers and remaining uncovered pairs. Every uncovered pair (i, j) has
// i >= from, since coverage only grows down the tree.
func (s *exactSearch) search(depth, n, remaining, from int) {
	if s.exhausted || s.best == s.lower {
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.exhausted = true
		return
	}
	if remaining == 0 {
		if n < s.best {
			s.best = n
			s.bestSets = make([][]int, n)
			for r, mask := range s.members[:n] {
				s.bestSets[r] = maskIDs(mask)
			}
		}
		return
	}
	if n >= s.best {
		return
	}
	m := s.m
	cov := s.frames[depth*m : (depth+1)*m]
	// The lexicographically first uncovered pair (i, j), i < j.
	i := from
	var open uint64
	for ; ; i++ {
		if open = ^cov[i] &^ (2<<i - 1) & (1<<m - 1); open != 0 {
			break
		}
	}
	j := bits.TrailingZeros64(open)
	bi, bj := uint64(1)<<i, uint64(1)<<j
	wi, wj := s.sizes[i], s.sizes[j]

	next := s.frames[(depth+1)*m : (depth+2)*m]

	// Option A: place the pair into an existing reducer.
	for r := 0; r < n; r++ {
		mask := s.members[r]
		var added uint64
		var extra core.Size
		switch hasI, hasJ := mask&bi != 0, mask&bj != 0; {
		case hasI && hasJ:
			continue // the pair would already be covered; cannot happen
		case hasI:
			added, extra = bj, wj
		case hasJ:
			added, extra = bi, wi
		default:
			added, extra = bi|bj, wi+wj
		}
		if s.loads[r]+extra > s.q {
			continue
		}
		// Cover every pair the added input(s) form with the members and, when
		// both are new, with each other.
		copy(next, cov)
		newly := 0
		for a := added; a != 0; a &= a - 1 {
			x := bits.TrailingZeros64(a)
			newly += bits.OnesCount64(mask &^ cov[x])
			next[x] |= mask
		}
		for b := mask; b != 0; b &= b - 1 {
			next[bits.TrailingZeros64(b)] |= added
		}
		if added == bi|bj {
			next[i] |= bj
			next[j] |= bi
			newly++
		}
		s.members[r] = mask | added
		s.loads[r] += extra

		s.search(depth+1, n, remaining-newly, i)

		s.members[r] = mask
		s.loads[r] -= extra
	}

	// Option B: open a new reducer with exactly this pair.
	if n+1 < s.best && wi+wj <= s.q {
		copy(next, cov)
		next[i] |= bj
		next[j] |= bi
		s.members[n] = bi | bj
		s.loads[n] = wi + wj
		s.search(depth+1, n+1, remaining-1, i)
	}
}

// maskIDs lists the set bits of mask in ascending order.
func maskIDs(mask uint64) []int {
	ids := make([]int, 0, bits.OnesCount64(mask))
	for ; mask != 0; mask &= mask - 1 {
		ids = append(ids, bits.TrailingZeros64(mask))
	}
	return ids
}
