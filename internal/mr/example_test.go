package mr_test

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/mr"
)

// A word count on two reducers: words starting with a-m are counted by
// reducer 0, the rest by reducer 1. Route copies each line to the reducers
// that own its words; Reduce counts the words it owns.
func ExampleRun() {
	owner := func(w string) int {
		if w[0] <= 'm' {
			return 0
		}
		return 1
	}
	job := &mr.Job{
		Name:        "wordcount",
		NumReducers: 2,
		Route: func(_ int, rec []byte) (mr.Route, error) {
			var rs []int
			seen := map[int]bool{}
			for _, w := range strings.Fields(string(rec)) {
				if r := owner(w); !seen[r] {
					seen[r] = true
					rs = append(rs, r)
				}
			}
			return mr.Route{Value: rec, Reducers: rs}, nil
		},
		Reduce: func(r int, refs []mr.Ref, emit func([]byte)) error {
			counts := map[string]int{}
			for _, ref := range refs {
				for _, w := range strings.Fields(string(ref.Value)) {
					if owner(w) == r {
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
	res, err := mr.Run(context.Background(), job, [][]byte{
		[]byte("to be or not"),
		[]byte("to be"),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, rec := range res.FlatOutput() {
		fmt.Println(string(rec))
	}
	fmt.Println("shuffle records:", res.Counters.ShuffleRecords)
	// Output:
	// be=2
	// not=1
	// or=1
	// to=2
	// shuffle records: 4
}
