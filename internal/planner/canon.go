package planner

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// canonical is the renaming-invariant form of a planning request: the size
// multisets sorted ascending, plus the permutations needed to translate a
// canonical solution back to the original input IDs. For X2Y instances the
// sides are additionally ordered (the cross-pair covering constraint is
// symmetric in X and Y), so an instance and its mirror share one cache entry.
type canonical struct {
	problem core.Problem
	q       core.Size
	// sizes holds the canonical sizes of the A2A set, or of the canonical X
	// side for X2Y; ySizes holds the canonical Y side (X2Y only).
	sizes  []core.Size
	ySizes []core.Size
	// perm maps canonical position -> original ID for sizes; yPerm likewise
	// for ySizes. When swapped is true the canonical X side was built from
	// the request's Y set (and vice versa), so perm indexes the original Y
	// IDs and yPerm the original X IDs.
	perm    []int
	yPerm   []int
	swapped bool
	// hash keys the cache; equal canonical instances always hash equally and
	// lookups re-compare the sizes to rule out collisions.
	hash uint64
}

// canonicalize validates the request and builds its canonical form.
func canonicalize(req Request) (*canonical, error) {
	if req.Capacity <= 0 {
		return nil, fmt.Errorf("planner: capacity must be positive, got %d", req.Capacity)
	}
	switch req.Problem {
	case core.ProblemA2A:
		if req.Set == nil {
			return nil, fmt.Errorf("planner: A2A request needs Set")
		}
		cn := &canonical{
			problem: core.ProblemA2A,
			q:       req.Capacity,
			sizes:   req.Set.CanonicalSizes(),
			perm:    req.Set.CanonicalPermutation(),
		}
		cn.hash = core.MixFingerprint(core.FingerprintSizes(cn.sizes), uint64(cn.problem), uint64(cn.q))
		return cn, nil
	case core.ProblemX2Y:
		if req.X == nil || req.Y == nil {
			return nil, fmt.Errorf("planner: X2Y request needs X and Y")
		}
		cn := &canonical{problem: core.ProblemX2Y, q: req.Capacity}
		xSizes, ySizes := req.X.CanonicalSizes(), req.Y.CanonicalSizes()
		if sideLess(ySizes, xSizes) {
			cn.swapped = true
			cn.sizes, cn.ySizes = ySizes, xSizes
			cn.perm, cn.yPerm = req.Y.CanonicalPermutation(), req.X.CanonicalPermutation()
		} else {
			cn.sizes, cn.ySizes = xSizes, ySizes
			cn.perm, cn.yPerm = req.X.CanonicalPermutation(), req.Y.CanonicalPermutation()
		}
		cn.hash = core.MixFingerprint(core.FingerprintSizes(cn.sizes),
			uint64(cn.problem), uint64(cn.q), core.FingerprintSizes(cn.ySizes))
		return cn, nil
	default:
		return nil, fmt.Errorf("planner: unknown problem %v", req.Problem)
	}
}

// inputSets builds input sets over the canonical sizes. The portfolio solves
// these, so cached schemas reference canonical IDs. Construction is deferred
// to the solve path: cache hits never need them.
func (cn *canonical) inputSets() (set, ySet *core.InputSet, err error) {
	if set, err = core.NewInputSet(cn.sizes); err != nil {
		return nil, nil, fmt.Errorf("planner: canonicalizing instance: %w", err)
	}
	if cn.problem == core.ProblemX2Y {
		if ySet, err = core.NewInputSet(cn.ySizes); err != nil {
			return nil, nil, fmt.Errorf("planner: canonicalizing Y side: %w", err)
		}
	}
	return set, ySet, nil
}

// sideLess orders size multisets: shorter first, then lexicographically
// smaller. It decides which X2Y side becomes the canonical X.
func sideLess(a, b []core.Size) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// matches reports whether the canonical instance equals the one an entry was
// stored for, guarding against fingerprint collisions.
func (cn *canonical) matches(problem core.Problem, q core.Size, sizes, ySizes []core.Size) bool {
	return cn.problem == problem && cn.q == q &&
		slices.Equal(cn.sizes, sizes) && slices.Equal(cn.ySizes, ySizes)
}
