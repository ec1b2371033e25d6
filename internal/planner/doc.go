// Package planner is the unified facade over the mapping-schema solvers of
// internal/a2a and internal/x2y. A single entry point, Plan, accepts either
// problem kind, races a portfolio of algorithms (the paper's constructive
// dispatch, alternative bin-packing policies, the coverage-greedy baseline,
// and the bounded exact branch-and-bound) under a time-and-node budget, and
// returns the schema with the fewest reducers, breaking ties on maximum load.
//
// Because the problems are invariant under input renaming, Plan canonicalizes
// every instance to its sorted size multiset before solving and memoizes the
// canonical solution in a sharded, concurrency-safe LRU cache with
// single-flight deduplication: isomorphic instances — including X2Y instances
// with the sides swapped — are solved once and served by renaming IDs back.
// A served schema is one fresh allocation of reducers plus one shared ID
// arena, each reducer's canonical IDs mapped through the request's
// permutation into its own capped slice of the arena, so a cache hit costs
// the same few allocations however many reducers the plan has.
// The cmd/pland HTTP server exposes the same facade over JSON, and the
// simjoin and skewjoin applications plan through it by default.
package planner
