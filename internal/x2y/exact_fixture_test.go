package x2y

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

var updateExact = flag.Bool("update-exact", false, "rewrite testdata/exact_corpus.json from the current Exact")

// exactCase is one pinned Exact run: the instance, the node budget, and what
// came back — the FNV-64a hash of the schema's JSON, whether the search hit
// its node budget, and any other error text.
type exactCase struct {
	X        []core.Size `json:"x"`
	Y        []core.Size `json:"y"`
	Q        core.Size   `json:"q"`
	MaxNodes int         `json:"max_nodes"`
	Hash     string      `json:"hash,omitempty"`
	Budget   bool        `json:"budget,omitempty"`
	Err      string      `json:"err,omitempty"`
}

const exactCorpusPath = "testdata/exact_corpus.json"

// exactCorpus draws the seeded instances: |X|+|Y| in 2..12 with both sides
// non-empty, a random q, and sizes
// from one of three bands (up to q/4, up to q/2, and q/4..0.6q, which makes
// some instances infeasible), each run under the three node budgets.
func exactCorpus() []exactCase {
	rng := rand.New(rand.NewSource(20150324))
	var out []exactCase
	for len(out) < 2010 {
		m := 2 + rng.Intn(11)
		q := core.Size(8 + rng.Intn(300))
		lo, hi := int64(1), int64(q)/2
		switch rng.Intn(4) {
		case 0:
			hi = int64(q) / 4
		case 1:
			lo, hi = int64(q)/4, int64(q)*6/10
		}
		nx := 1 + rng.Intn(m-1)
		sizes := make([]core.Size, m)
		for i := range sizes {
			sizes[i] = core.Size(lo + rng.Int63n(hi-lo+1))
		}
		for _, n := range []int{50, 1000, 200_000} {
			out = append(out, exactCase{X: sizes[:nx], Y: sizes[nx:], Q: q, MaxNodes: n})
		}
	}
	return out
}

func runExactCase(c exactCase) exactCase {
	xs, ys := core.MustNewInputSet(c.X), core.MustNewInputSet(c.Y)
	ms, err := Exact(xs, ys, c.Q, ExactOptions{MaxNodes: c.MaxNodes})
	c.Hash, c.Budget, c.Err = "", false, ""
	switch {
	case errors.Is(err, ErrNodeBudget):
		c.Budget = true
	case err != nil:
		c.Err = err.Error()
		return c
	}
	data, merr := json.Marshal(ms)
	if merr != nil {
		panic(merr)
	}
	h := fnv.New64a()
	h.Write(data)
	c.Hash = fmt.Sprintf("%016x", h.Sum64())
	return c
}

// TestExactCorpus replays the committed corpus: every schema, including the
// budget-truncated ones, must hash exactly as it did when the corpus was
// recorded, so search-state rewrites cannot change a single branch.
func TestExactCorpus(t *testing.T) {
	if *updateExact {
		// One case per line keeps the file diffable.
		data := []byte("[\n")
		for i, c := range exactCorpus() {
			line, err := json.Marshal(runExactCase(c))
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				data = append(data, ",\n"...)
			}
			data = append(data, line...)
		}
		data = append(data, "\n]\n"...)
		if err := os.MkdirAll(filepath.Dir(exactCorpusPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactCorpusPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(exactCorpusPath)
	if err != nil {
		t.Fatalf("reading corpus (regenerate with -update-exact): %v", err)
	}
	var want []exactCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	budget := 0
	for i, w := range want {
		got := runExactCase(w)
		if got.Hash != w.Hash || got.Budget != w.Budget || got.Err != w.Err {
			t.Errorf("case %d x=%v y=%v q=%d max_nodes=%d: got hash=%s budget=%v err=%q, want hash=%s budget=%v err=%q",
				i, w.X, w.Y, w.Q, w.MaxNodes, got.Hash, got.Budget, got.Err, w.Hash, w.Budget, w.Err)
		}
		if w.Budget {
			budget++
		}
	}
	t.Logf("%d cases replayed, %d budget-truncated", len(want), budget)
}
