package skewjoin

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/exec"
	"repro/internal/mr"
	"repro/internal/workload"
)

// JoinedTuple is one output row 〈a, b, c〉 of the join X(A,B) ⋈ Y(B,C).
type JoinedTuple struct {
	A, B, C string
}

// Result is the outcome of a skew-join run.
type Result struct {
	// Plan is the reducer plan that drove the run.
	Plan *Plan
	// Joined holds the output rows when Config.CountOnly is false.
	Joined []JoinedTuple
	// JoinedCount is the number of output rows (always filled in).
	JoinedCount int64
	// Counters are the engine's measurements, merged across the light-key job
	// and the per-heavy-key executor jobs.
	Counters mr.Counters
	// HeavyAudited reports whether every heavy key's executor job passed the
	// conformance audit (every block pair joined exactly once at its owning
	// reducer). It is true when there are no heavy keys.
	HeavyAudited bool
}

// ErrEmptyRelation is returned when either input relation has no tuples.
var ErrEmptyRelation = errors.New("skewjoin: empty input relation")

// Run executes the skew join of x and y under the given configuration. Light
// keys run as one bin-packed MapReduce job; every heavy key's X2Y mapping
// schema is compiled and executed by the schema-driven executor, one job per
// key, concurrently under a bounded pool.
func Run(x, y *workload.Relation, cfg Config) (*Result, error) {
	if x == nil || y == nil || len(x.Tuples) == 0 || len(y.Tuples) == 0 {
		return nil, ErrEmptyRelation
	}
	plan, err := BuildPlan(x, y, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan, HeavyAudited: true}
	if plan.NumReducers == 0 {
		// No key appears on both sides: the join is empty.
		return res, nil
	}

	var output [][]byte
	if plan.LightReducers > 0 {
		lightOut, counters, err := runLight(plan, x, y, cfg)
		if err != nil {
			return nil, err
		}
		output = append(output, lightOut...)
		res.Counters.Merge(counters)
	}
	if len(plan.HeavyKeys) > 0 {
		reqs := heavyRequests(plan, x, y, cfg)
		results, err := exec.RunBatch(context.Background(), reqs, exec.BatchOptions{Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("skewjoin: heavy keys: %w", err)
		}
		for _, r := range results {
			output = append(output, r.Output...)
			res.Counters.Merge(&r.Counters)
			if !r.Audited {
				res.HeavyAudited = false
			}
		}
	}

	for _, rec := range output {
		if cfg.CountOnly {
			n, err := strconv.ParseInt(string(rec), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("skewjoin: malformed count record %q: %w", rec, err)
			}
			res.JoinedCount += n
			continue
		}
		jt, err := decodeJoined(rec)
		if err != nil {
			return nil, err
		}
		res.Joined = append(res.Joined, jt)
		res.JoinedCount++
	}
	return res, nil
}

// Record encoding.
//
// The light-key job's records are its shuffle values: one per tuple, in
// relation order (X, then Y), so a record's source index names its tuple and
// the reducer groups by the embedded key:
//
//	"X|<key>|<payload>"
//
// The executor jobs of heavy keys do not use this encoding: their inputs are
// whole blocks, framed as length-prefixed payload lists (encodeBlock).

func encodeLightRecords(x, y *workload.Relation) [][]byte {
	records := make([][]byte, 0, len(x.Tuples)+len(y.Tuples))
	for _, t := range x.Tuples {
		records = append(records, encodeLightValue('X', t.Key, t.Payload))
	}
	for _, t := range y.Tuples {
		records = append(records, encodeLightValue('Y', t.Key, t.Payload))
	}
	return records
}

func encodeLightValue(side byte, key, payload string) []byte {
	return []byte(string(side) + "|" + key + "|" + payload)
}

func decodeLightValue(v []byte) (side byte, key, payload string, err error) {
	parts := strings.SplitN(string(v), "|", 3)
	if len(parts) != 3 || len(parts[0]) != 1 {
		return 0, "", "", fmt.Errorf("skewjoin: malformed shuffle value %q", v)
	}
	return parts[0][0], parts[1], parts[2], nil
}

func encodeJoined(t JoinedTuple) []byte {
	return []byte(t.A + "|" + t.B + "|" + t.C)
}

func decodeJoined(rec []byte) (JoinedTuple, error) {
	parts := strings.SplitN(string(rec), "|", 3)
	if len(parts) != 3 {
		return JoinedTuple{}, fmt.Errorf("skewjoin: malformed joined record %q", rec)
	}
	return JoinedTuple{A: parts[0], B: parts[1], C: parts[2]}, nil
}

// encodeBlock frames a heavy-key block as a length-prefixed payload list, so
// arbitrary payload bytes survive the round trip.
func encodeBlock(payloads []string) []byte {
	var b strings.Builder
	for _, p := range payloads {
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte(':')
		b.WriteString(p)
	}
	return []byte(b.String())
}

func decodeBlock(data []byte) ([]string, error) {
	var out []string
	for len(data) > 0 {
		cut := bytes.IndexByte(data, ':')
		if cut < 0 {
			return nil, fmt.Errorf("skewjoin: malformed block frame %q", data)
		}
		n, err := strconv.Atoi(string(data[:cut]))
		if err != nil || n < 0 || cut+1+n > len(data) {
			return nil, fmt.Errorf("skewjoin: malformed block frame %q", data)
		}
		out = append(out, string(data[cut+1:cut+1+n]))
		data = data[cut+1+n:]
	}
	return out, nil
}

// runLight executes the light keys as one job: every both-sided light tuple
// goes to the single reducer its key was bin-packed into; the reducer joins
// key by key.
func runLight(plan *Plan, x, y *workload.Relation, cfg Config) ([][]byte, *mr.Counters, error) {
	job := &mr.Job{
		Name:        "skew-join-light",
		NumReducers: plan.LightReducers,
		Route:       lightRoute(plan, len(x.Tuples)),
		Reduce:      lightReduce(cfg),
		Workers:     cfg.Workers,
	}
	runRes, err := mr.RunStream(context.Background(), job,
		mr.NewSliceSource(encodeLightRecords(x, y)), nil,
		mr.StreamOptions{MemoryBudget: cfg.MemoryBudget, SpillDir: cfg.SpillDir})
	if err != nil {
		return nil, nil, fmt.Errorf("skewjoin: running the light-key job: %w", err)
	}
	return runRes.FlatOutput(), &runRes.Counters, nil
}

// lightRoute ships every light, both-sided tuple to its planned reducer.
// Record idx is X tuple idx, or Y tuple idx-numX. Heavy tuples are handled
// by the executor jobs and one-sided tuples produce no join output; neither
// is shipped.
func lightRoute(plan *Plan, numX int) func(int, []byte) (mr.Route, error) {
	return func(idx int, rec []byte) (mr.Route, error) {
		dests, blockOrd := plan.xDest, plan.xBlock
		if idx >= numX {
			dests, blockOrd, idx = plan.yDest, plan.yBlock, idx-numX
		}
		if blockOrd[idx] >= 0 {
			return mr.Route{}, nil // heavy tuple: joined by its key's executor job
		}
		return mr.Route{Value: rec, Reducers: dests[idx]}, nil
	}
}

// lightReduce joins the X and Y tuples it receives, key by key. Several
// light keys may share a reducer (they were bin-packed together); keys are
// processed in first-seen order, which is deterministic because copies
// arrive in record order.
func lightReduce(cfg Config) func(int, []mr.Ref, func([]byte)) error {
	return func(_ int, refs []mr.Ref, emit func([]byte)) error {
		xByKey := map[string][]string{}
		yByKey := map[string][]string{}
		var keys []string
		seen := map[string]bool{}
		for _, ref := range refs {
			side, key, payload, err := decodeLightValue(ref.Value)
			if err != nil {
				return err
			}
			if !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
			switch side {
			case 'X':
				xByKey[key] = append(xByKey[key], payload)
			case 'Y':
				yByKey[key] = append(yByKey[key], payload)
			default:
				return fmt.Errorf("skewjoin: unknown side %q in shuffle value", string(side))
			}
		}
		for _, key := range keys {
			emitJoin(cfg, key, xByKey[key], yByKey[key], emit)
		}
		return nil
	}
}

// emitJoin emits the join of one key's X and Y payload lists: the full cross
// product, or just its cardinality under CountOnly.
func emitJoin(cfg Config, key string, xv, yv []string, emit func([]byte)) {
	if len(xv) == 0 || len(yv) == 0 {
		return
	}
	if cfg.CountOnly {
		emit([]byte(strconv.FormatInt(int64(len(xv))*int64(len(yv)), 10)))
		return
	}
	for _, a := range xv {
		for _, c := range yv {
			emit(encodeJoined(JoinedTuple{A: a, B: key, C: c}))
		}
	}
}

// heavyRequests builds one executor request per heavy key: the key's X and Y
// blocks become the job inputs, its X2Y schema drives replication, and the
// pair function joins one X block with one Y block. Owner election — a
// schema may cover a block pair at several reducers — is the executor's.
// The pair function joins from the per-block payload tables rather than
// re-decoding the shipped frames: a block meets every block of the other
// side, so per-pair decoding would multiply the decode work by the opposite
// side's block count.
func heavyRequests(plan *Plan, x, y *workload.Relation, cfg Config) []exec.Request {
	reqs := make([]exec.Request, 0, len(plan.HeavyKeys))
	for _, k := range plan.HeavyKeys {
		key := k
		xPayloads, xInputs := blockInputs(x, plan.xBlocks[key])
		yPayloads, yInputs := blockInputs(y, plan.yBlocks[key])
		reqs = append(reqs, exec.Request{
			Name:         "skew-join-heavy:" + key,
			Schema:       plan.HeavySchemas[key],
			XInputs:      xInputs,
			YInputs:      yInputs,
			Workers:      cfg.Workers,
			MemoryBudget: cfg.MemoryBudget,
			SpillDir:     cfg.SpillDir,
			Pair: func(a, b exec.Record, emit func([]byte)) error {
				emitJoin(cfg, key, xPayloads[a.ID], yPayloads[b.ID], emit)
				return nil
			},
		})
	}
	return reqs
}

// blockInputs collects each block's tuple payloads and frames them as one
// executor input per block.
func blockInputs(rel *workload.Relation, blocks []block) ([][]string, [][]byte) {
	payloads := make([][]string, len(blocks))
	inputs := make([][]byte, len(blocks))
	for i, b := range blocks {
		ps := make([]string, len(b.tuples))
		for j, ti := range b.tuples {
			ps[j] = rel.Tuples[ti].Payload
		}
		payloads[i] = ps
		inputs[i] = encodeBlock(ps)
	}
	return payloads, inputs
}

// ReferenceJoin computes the join with an in-memory hash join; it is the
// ground truth the MapReduce run is verified against.
func ReferenceJoin(x, y *workload.Relation) []JoinedTuple {
	yByKey := map[string][]string{}
	for _, t := range y.Tuples {
		yByKey[t.Key] = append(yByKey[t.Key], t.Payload)
	}
	var out []JoinedTuple
	for _, t := range x.Tuples {
		for _, c := range yByKey[t.Key] {
			out = append(out, JoinedTuple{A: t.Payload, B: t.Key, C: c})
		}
	}
	return out
}

// ReferenceJoinCount returns only the output cardinality of the join.
func ReferenceJoinCount(x, y *workload.Relation) int64 {
	yCounts := map[string]int64{}
	for _, t := range y.Tuples {
		yCounts[t.Key]++
	}
	var n int64
	for _, t := range x.Tuples {
		n += yCounts[t.Key]
	}
	return n
}
