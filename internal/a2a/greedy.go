package a2a

import (
	"repro/internal/core"
)

// Greedy is a coverage-greedy baseline for the A2A problem. It repeatedly
// opens a reducer seeded with the lexicographically first uncovered pair and
// then keeps adding the input that covers the most still-uncovered pairs with
// the reducer's current members (among the inputs that still fit), until no
// addition covers a new pair. It always produces a valid schema for feasible
// instances but offers no approximation guarantee; the paper's algorithms are
// compared against it.
func Greedy(set *core.InputSet, q core.Size) (*core.MappingSchema, error) {
	const algorithm = "a2a/greedy"
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
	cov := newCoverage(m)
	ms := &core.MappingSchema{Problem: core.ProblemA2A, Capacity: q, Algorithm: algorithm}

	memberSet := core.GetCoverSet(m)
	defer core.PutCoverSet(memberSet)
	for cov.remaining > 0 {
		i, j := cov.firstUncovered()
		members := []int{i, j}
		memberSet.Clear()
		memberSet.Add(i)
		memberSet.Add(j)
		load := set.Size(i) + set.Size(j)
		cov.cover(i, j)

		for {
			best, bestGain := -1, 0
			for x := 0; x < m; x++ {
				if memberSet.Contains(x) || load+set.Size(x) > q {
					continue
				}
				// The candidate's gain is how many current members it is not
				// yet covered with: |members \ coveredWith(x)|, one popcount
				// over the bitset rows instead of a per-member scan.
				gain := memberSet.CountAndNot(cov.row(x))
				if gain > bestGain {
					best, bestGain = x, gain
				}
			}
			if best == -1 {
				break
			}
			for _, y := range members {
				cov.cover(best, y)
			}
			members = append(members, best)
			memberSet.Add(best)
			load += set.Size(best)
		}
		ms.AddReducerA2A(set, members)
	}
	return ms, nil
}

// coverage tracks which unordered pairs of 0..m-1 are already covered, as
// one symmetric bitset row per input: rows[i] holds every j already covered
// with i. Rows make the greedy gain computation a popcount and the
// first-uncovered scans word-at-a-time.
type coverage struct {
	m         int
	rows      []core.CoverSet
	remaining int
	// cursor speeds up firstUncovered scans: pairs before it are covered.
	cursorI, cursorJ int
}

func newCoverage(m int) *coverage {
	rows := make([]core.CoverSet, m)
	for i := range rows {
		rows[i].Reset(m)
	}
	return &coverage{
		m:         m,
		rows:      rows,
		remaining: m * (m - 1) / 2,
		cursorI:   0,
		cursorJ:   1,
	}
}

// row exposes input i's covered-with row for bitset queries.
func (c *coverage) row(i int) *core.CoverSet { return &c.rows[i] }

func (c *coverage) cover(i, j int) {
	if i == j || c.rows[i].Contains(j) {
		return
	}
	c.rows[i].Add(j)
	c.rows[j].Add(i)
	c.remaining--
}

// firstUncovered returns the lexicographically first uncovered pair. It must
// only be called when remaining > 0. Coverage only grows, so the scan resumes
// at the cursor: every pair before it is covered.
func (c *coverage) firstUncovered() (int, int) {
	i, j := c.cursorI, c.cursorJ
	for i < c.m {
		if j < i+1 {
			j = i + 1
		}
		if next := c.rows[i].NextAbsent(j); next < c.m {
			c.cursorI, c.cursorJ = i, next
			return i, next
		}
		i++
		j = i + 1
	}
	return 0, 1
}
