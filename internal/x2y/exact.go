package x2y

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// ErrTooLargeForExact is returned when the exact solver is asked to handle an
// instance with more cross pairs than its configured limit allows.
var ErrTooLargeForExact = errors.New("x2y: instance too large for the exact solver")

// ErrNodeBudget indicates the exact solver stopped at its node budget; the
// returned schema is the best found so far (valid but possibly suboptimal).
var ErrNodeBudget = errors.New("x2y: exact solver node budget exhausted")

// maxExactInputs is the hard ceiling on Exact's instance size (|X| + |Y|):
// the search keeps each side of a reducer and each X input's coverage row in
// one uint64.
const maxExactInputs = 64

// ExactOptions configures the exact solver.
type ExactOptions struct {
	// MaxInputs caps the total number of inputs (|X| + |Y|); 0 means the
	// default of 12. Instances over 64 inputs are always rejected.
	MaxInputs int
	// MaxNodes caps the number of explored nodes; 0 means 2 million.
	MaxNodes int
}

// Exact computes a minimum-reducer X2Y mapping schema by branch and bound,
// analogous to the A2A exact solver: pick the first uncovered cross pair,
// branch on covering it inside an existing reducer or in a fresh reducer, and
// prune against the incumbent heuristic solution and the lower bound.
//
// The search state is machine words: an X mask and a Y mask per open reducer
// and a uint64 row of covered Y inputs per X input, so instances over 64
// inputs return ErrTooLargeForExact whatever MaxInputs says.
func Exact(xs, ys *core.InputSet, q core.Size, opts ExactOptions) (*core.MappingSchema, error) {
	const algorithm = "x2y/exact"
	if opts.MaxInputs == 0 {
		opts.MaxInputs = 12
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 2_000_000
	}
	if limit := min(opts.MaxInputs, maxExactInputs); xs.Len()+ys.Len() > limit {
		return nil, fmt.Errorf("%w: %d inputs > limit %d", ErrTooLargeForExact, xs.Len()+ys.Len(), limit)
	}
	if xs.Len() == 0 || ys.Len() == 0 {
		return emptySchema(q, algorithm), nil
	}
	if err := CheckFeasible(xs, ys, q); err != nil {
		return nil, err
	}
	if xs.TotalSize()+ys.TotalSize() <= q {
		return singleReducer(xs, ys, q, algorithm), nil
	}

	incumbent, err := Solve(xs, ys, q)
	if err != nil {
		return nil, err
	}
	best := incumbent.NumReducers()
	bestRed := make([]exactReducer, best)
	for i, r := range incumbent.Reducers {
		bestRed[i] = exactReducer{x: r.XInputs, y: r.YInputs}
	}
	nx, ny := xs.Len(), ys.Len()
	pairs := nx * ny
	s := &exactSearch{
		xSizes: xs.Sizes(), ySizes: ys.Sizes(), q: q,
		nx: nx, ny: ny,
		best:     best,
		bestRed:  bestRed,
		maxNodes: opts.MaxNodes,
		lower:    LowerBounds(xs, ys, q).Reducers,
		xMasks:   make([]uint64, best),
		yMasks:   make([]uint64, best),
		loads:    make([]core.Size, best),
		// Every move covers at least one pair, so the tree is at most
		// pairs deep.
		frames: make([]uint64, (pairs+1)*nx),
	}
	s.search(0, 0, pairs, 0)

	ms := &core.MappingSchema{Problem: core.ProblemX2Y, Capacity: q, Algorithm: algorithm}
	for _, r := range s.bestRed {
		ms.AddReducerX2Y(xs, ys, r.x, r.y)
	}
	if s.exhausted {
		return ms, ErrNodeBudget
	}
	return ms, nil
}

type exactReducer struct {
	x, y []int
}

// exactSearch is the branch-and-bound state. Open reducer r holds the X
// inputs xMasks[r] and the Y inputs yMasks[r] at load loads[r]. frames is a
// stack of coverage frames, nx words each: word x of the frame at depth d
// holds the Y inputs already covered with X input x. A move copies its frame
// one level down and edits the copy, so backtracking is just returning.
type exactSearch struct {
	xSizes, ySizes []core.Size
	q              core.Size
	nx, ny         int
	best           int
	bestRed        []exactReducer
	nodes          int
	maxNodes       int
	exhausted      bool
	lower          int
	xMasks, yMasks []uint64
	loads          []core.Size
	frames         []uint64
}

// search explores assignments from the coverage frame at depth with n open
// reducers and remaining uncovered cross pairs, all of them in rows >= from.
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
			s.bestRed = make([]exactReducer, n)
			for r := range s.bestRed {
				s.bestRed[r] = exactReducer{x: maskIDs(s.xMasks[r]), y: maskIDs(s.yMasks[r])}
			}
		}
		return
	}
	if n >= s.best {
		return
	}
	nx := s.nx
	cov := s.frames[depth*nx : (depth+1)*nx]
	next := s.frames[(depth+1)*nx : (depth+2)*nx]
	// First uncovered cross pair, in (x, y) order.
	allY := uint64(1)<<s.ny - 1
	px := from
	for cov[px] == allY {
		px++
	}
	py := bits.TrailingZeros64(^cov[px] & allY)
	bx, by := uint64(1)<<px, uint64(1)<<py
	wx, wy := s.xSizes[px], s.ySizes[py]

	// Option A: cover inside an existing reducer.
	for r := 0; r < n; r++ {
		xm, ym := s.xMasks[r], s.yMasks[r]
		var extra core.Size
		switch hasX, hasY := xm&bx != 0, ym&by != 0; {
		case hasX && hasY:
			continue
		case hasX:
			extra = wy
		case hasY:
			extra = wx
		default:
			extra = wx + wy
		}
		if s.loads[r]+extra > s.q {
			continue
		}
		// Every X member is now covered with every Y member.
		nxm, nym := xm|bx, ym|by
		copy(next, cov)
		newly := 0
		for a := nxm; a != 0; a &= a - 1 {
			x := bits.TrailingZeros64(a)
			newly += bits.OnesCount64(nym &^ cov[x])
			next[x] |= nym
		}
		s.xMasks[r], s.yMasks[r] = nxm, nym
		s.loads[r] += extra

		s.search(depth+1, n, remaining-newly, px)

		s.xMasks[r], s.yMasks[r] = xm, ym
		s.loads[r] -= extra
	}

	// Option B: open a new reducer with exactly this pair.
	if n+1 < s.best && wx+wy <= s.q {
		copy(next, cov)
		next[px] |= by
		s.xMasks[n], s.yMasks[n] = bx, by
		s.loads[n] = wx + wy
		s.search(depth+1, n+1, remaining-1, px)
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
