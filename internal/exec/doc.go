// Package exec turns mapping schemas into running jobs.
//
// The algorithm packages (a2a, x2y) and the planner decide, ahead of time,
// which reducers every input must be replicated to so that all required pairs
// of inputs meet under the reducer-capacity bound q. That decision — a
// core.MappingSchema — is only a plan. exec is the execution layer that
// realises it: Run compiles a schema plus user pair logic into an mr.Job on
// the reducer-indexed core and executes it, and an always-on conformance
// harness proves afterwards that what the planner promised is what the engine
// delivered.
//
// # The schema-to-job compilation contract
//
// Run compiles a Request as follows:
//
//   - Every input is one engine record: the A2A inputs in ID order, or the X
//     side followed by the Y side, so a record's source index names its side
//     and input ID. No framing is built.
//   - The route looks the input up in the schema's assignments
//     (mr.AssignmentsA2A / mr.AssignmentsX2Y) and ships the payload to every
//     assigned reducer index. Replication is therefore exactly what the
//     schema declares — no more, no fewer copies.
//   - Each reducer receives its copies in source order (ascending IDs, X
//     before Y) and invokes the user PairFunc once per required pair it owns.
//     A schema may cover a pair at several reducers; the pair's owner is the
//     lowest-indexed reducer assigned both inputs (Auditor.Owner), so every
//     pair is processed exactly once across the whole job.
//   - Every copy is charged mr.CopyBytes: the reducer tag, a side/ID header
//     ("a|<id>|", "x|<id>|" or "y|<id>|"), and the payload. The job's
//     engine-level capacity is the largest per-reducer load the routing can
//     produce. The schema-level capacity q is checked separately by the
//     audit, in the schema's own size units.
//
// # The conformance harness
//
// The Auditor turns the paper's correctness conditions into machine-checked
// invariants. Before the job runs it verifies the schema itself: every
// declared reducer load is within q (ErrOverCapacity) and every required
// pair has an owner (ErrUncoveredPair). While the job runs, the compiled
// reducers log every processed pair into a Trace; afterwards the auditor
// cross-checks that every required pair was processed exactly once
// (ErrUncoveredPair / ErrDuplicatePair), at its owning reducer
// (ErrWrongOwner), and that the per-reducer loads the engine measured equal
// the loads the schema routed (ErrLoadMismatch). Violations are typed and
// aggregated in an AuditError, usable both as a production guard and as a
// test oracle.
//
// RunBatch executes many independent jobs under a bounded worker pool, for
// service-style traffic and for applications that decompose into many small
// schema-driven jobs (the skew join runs one per heavy key).
package exec
