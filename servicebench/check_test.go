package main

import (
	"crypto/sha256"
	"encoding/json"
	"testing"

	"repro/internal/a2a"
	"repro/internal/core"
	"repro/internal/x2y"
)

// digest hashes every request body a seed generates, in order.
func digest(seed int64) [32]byte {
	h := sha256.New()
	for _, ops := range genPlan(planMain, seed, clients).ops {
		for _, op := range ops {
			h.Write(op.body)
		}
	}
	for _, ops := range genExec(seed, clients).ops {
		for _, op := range ops {
			h.Write(op.body)
		}
	}
	for _, sc := range genSession(sessMain, seed, clients).clients {
		h.Write(sc.create)
		for _, op := range sc.ops {
			h.Write(op.body)
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	if digest(7) != digest(7) {
		t.Fatal("one seed produced two different request sequences")
	}
	if digest(7) == digest(8) {
		t.Fatal("two seeds produced the same request sequence")
	}
}

// servedPlan answers op the way pland would: a valid schema over the
// request's own input order.
func servedPlan(t *testing.T, op *planOp) planResp {
	t.Helper()
	var ms *core.MappingSchema
	var err error
	if op.inst.a2a {
		ms, err = a2a.Solve(core.MustNewInputSet(op.rx), op.inst.q)
	} else {
		ms, err = x2y.Solve(core.MustNewInputSet(op.rx), core.MustNewInputSet(op.ry), op.inst.q)
	}
	if err != nil {
		t.Fatal(err)
	}
	return planResp{Schema: ms, Reducers: ms.NumReducers()}
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPlanCheckRejectsDroppedReducer(t *testing.T) {
	seq := genPlan(planProbe, 3, 1)
	for i := range seq.ops[0][:40] {
		op := &seq.ops[0][i]
		good := servedPlan(t, op)
		if len(good.Schema.Reducers) < 2 {
			continue // a one-reducer schema cannot lose one and stay decodable
		}
		if _, err := op.check(encode(t, good)); err != nil {
			t.Fatalf("op %d: valid response rejected: %v", i, err)
		}
		bad := good
		bad.Schema = &core.MappingSchema{Problem: good.Schema.Problem, Capacity: good.Schema.Capacity, Reducers: good.Schema.Reducers[1:]}
		bad.Reducers--
		if _, err := op.check(encode(t, bad)); err == nil {
			t.Fatalf("op %d: response with a dropped reducer accepted", i)
		}
	}
}

func TestExecuteCheckRejectsWrongCounts(t *testing.T) {
	seq := genExec(3, 1)
	in := seq.insts[0]
	ms, err := a2a.Solve(core.MustNewInputSet(lengths(in.x)), in.q)
	if err != nil {
		t.Fatal(err)
	}
	var members int64
	for _, r := range ms.Reducers {
		members += int64(len(r.Inputs))
	}
	good := execResp{Schema: ms, CacheHit: true, Pairs: in.pairs, ShuffleRecords: members, SpillRuns: 3, Audited: true}
	spill := &execOp{inst: in, spill: true}
	if _, err := spill.check(encode(t, good)); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	for name, corrupt := range map[string]func(r *execResp){
		"wrong pair count":           func(r *execResp) { r.Pairs++ },
		"shuffle_records off by one": func(r *execResp) { r.ShuffleRecords-- },
		"not audited":                func(r *execResp) { r.Audited = false },
		"spill without runs":         func(r *execResp) { r.SpillRuns = 0 },
	} {
		bad := good
		corrupt(&bad)
		if _, err := spill.check(encode(t, bad)); err == nil {
			t.Errorf("%s: corrupted response accepted", name)
		}
	}
}

func TestSessionCheckRejectsDroppedReducer(t *testing.T) {
	sizes := genSession(sessProbe, 3, 1).clients[0].initial
	ms, err := a2a.Solve(core.MustNewInputSet(sizes), 1024)
	if err != nil {
		t.Fatal(err)
	}
	ids := identity(len(sizes))
	good := sessView{ID: "s", Schema: ms, IDs: ids, Sizes: sizes}
	if _, err := checkView(encode(t, good), initialLive(sizes)); err != nil {
		t.Fatalf("valid view rejected: %v", err)
	}
	bad := good
	bad.Schema = &core.MappingSchema{Problem: ms.Problem, Capacity: ms.Capacity, Reducers: ms.Reducers[1:]}
	if _, err := checkView(encode(t, bad), initialLive(sizes)); err == nil {
		t.Fatal("view with a dropped reducer accepted")
	}
	live := initialLive(sizes)
	live[len(sizes)] = 5 // the client knows of an input the view lacks
	if _, err := checkView(encode(t, good), live); err == nil {
		t.Fatal("view missing a live input accepted")
	}
}
