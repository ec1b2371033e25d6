package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// newTestCluster boots n in-process pland nodes wired into one ring. Health
// probing is not started: every peer reads alive, which is the steady state
// the routing tests want (liveness transitions are internal/shard's tests).
func newTestCluster(t *testing.T, n int) ([]*server, []*httptest.Server) {
	t.Helper()
	servers := make([]*server, n)
	httpSrvs := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{})
		httpSrvs[i] = httptest.NewServer(servers[i])
		urls[i] = httpSrvs[i].URL
	}
	t.Cleanup(func() {
		for i := range servers {
			httpSrvs[i].Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			servers[i].Close(ctx)
			cancel()
		}
	})
	for i, s := range servers {
		cfg := s.cfg
		cfg.Self = urls[i]
		cfg.Peers = urls
		cl, err := newCluster(cfg, s.log)
		if err != nil {
			t.Fatalf("newCluster(%d): %v", i, err)
		}
		s.cluster = cl
	}
	return servers, httpSrvs
}

// nodeIndex maps an advertised URL back to its index in the test fleet.
func nodeIndex(t *testing.T, urls []*httptest.Server, node string) int {
	t.Helper()
	for i, u := range urls {
		if u.URL == node {
			return i
		}
	}
	t.Fatalf("node %q is not in the fleet", node)
	return -1
}

// TestClusterSessionPlacementAndRouting: a create through any node lands on
// the ID's ring owner, every node serves GETs for it (forwarding when it is
// not the owner), and a DELETE through a non-owner tears it down fleet-wide.
func TestClusterSessionPlacementAndRouting(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()
	c0 := plandclient.New(httpSrvs[0].URL)

	sess, err := c0.CreateSession(ctx, plandclient.SessionCreateRequest{Capacity: 10, Sizes: []assign.Size{3, 4, 5}})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if sess.Node == "" || sess.Fingerprint == "" {
		t.Fatalf("clustered create missing node/fingerprint: %+v", sess)
	}
	wantOwner := servers[0].cluster.ring.Lookup(sess.ID)
	if sess.Node != wantOwner {
		t.Fatalf("session placed on %s, ring owner is %s", sess.Node, wantOwner)
	}
	ownerIdx := nodeIndex(t, httpSrvs, sess.Node)
	servers[ownerIdx].sessMu.Lock()
	_, present := servers[ownerIdx].sessions[sess.ID]
	servers[ownerIdx].sessMu.Unlock()
	if !present {
		t.Fatalf("session %s not registered on its owner %s", sess.ID, sess.Node)
	}

	// Every node answers a GET for it, with an identical fingerprint.
	for i, hs := range httpSrvs {
		got, err := plandclient.New(hs.URL).GetSession(ctx, sess.ID)
		if err != nil {
			t.Fatalf("GetSession via node %d: %v", i, err)
		}
		if got.Node != sess.Node || got.Fingerprint != sess.Fingerprint {
			t.Fatalf("node %d sees node=%s fp=%s, want node=%s fp=%s",
				i, got.Node, got.Fingerprint, sess.Node, sess.Fingerprint)
		}
	}

	// Delete through a node that is NOT the owner; the forward must apply it.
	otherIdx := (ownerIdx + 1) % len(httpSrvs)
	if _, err := plandclient.New(httpSrvs[otherIdx].URL).DeleteSession(ctx, sess.ID); err != nil {
		t.Fatalf("DeleteSession via non-owner: %v", err)
	}
	if _, err := c0.GetSession(ctx, sess.ID); !plandclient.IsCode(err, plandclient.CodeNotFound) {
		t.Fatalf("deleted session still reachable: %v", err)
	}
}

// TestClusterJobRouting: a v2 job submitted through any node runs on its
// ID's owner and is pollable through every node.
func TestClusterJobRouting(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	job, err := plandclient.New(httpSrvs[0].URL).SubmitPlan(ctx, plandclient.PlanRequest{
		Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1},
	})
	if err != nil {
		t.Fatalf("SubmitPlan: %v", err)
	}
	owner := servers[0].cluster.ring.Lookup(job.ID)
	ownerIdx := nodeIndex(t, httpSrvs, owner)
	if _, err := servers[ownerIdx].jobs.Get(job.ID); err != nil {
		t.Fatalf("job %s not on its owner %s: %v", job.ID, owner, err)
	}
	for i, hs := range httpSrvs {
		final, err := plandclient.New(hs.URL).WaitJob(ctx, job.ID, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("WaitJob via node %d: %v", i, err)
		}
		if final.State != plandclient.StateSucceeded {
			t.Fatalf("job ended %s via node %d", final.State, i)
		}
	}
}

// TestClusterHandoff: a draining node ships its sessions to their ring
// successor; the receiver serves them with an identical fingerprint and the
// rest of the fleet routes to the new home.
func TestClusterHandoff(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	sess, err := plandclient.New(httpSrvs[0].URL).CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity: 20, Sizes: []assign.Size{5, 3, 7, 2},
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	ownerIdx := nodeIndex(t, httpSrvs, sess.Node)
	ownerSrv := servers[ownerIdx]
	wantSuccessor, ok := ownerSrv.cluster.ring.Successor(sess.ID, ownerSrv.cluster.self, ownerSrv.cluster.health.Alive)
	if !ok {
		t.Fatal("no successor in a 3-node ring")
	}

	ownerSrv.startDrain()
	ownerSrv.handoffSessions(ctx)
	// In production the drain grace exists so peers' readiness probes see the
	// 503 and mark the node down before it stops serving; the tests don't run
	// probe loops, so apply that transition by hand.
	for _, s := range servers {
		s.cluster.health.MarkDown(sess.Node)
	}

	ownerSrv.sessMu.Lock()
	left := len(ownerSrv.sessions)
	ownerSrv.sessMu.Unlock()
	if left != 0 {
		t.Fatalf("%d sessions still on the drained node", left)
	}
	succIdx := nodeIndex(t, httpSrvs, wantSuccessor)
	servers[succIdx].sessMu.Lock()
	_, present := servers[succIdx].sessions[sess.ID]
	servers[succIdx].sessMu.Unlock()
	if !present {
		t.Fatalf("session %s did not land on successor %s", sess.ID, wantSuccessor)
	}

	// A third node still reaches it; the fingerprint survived the transfer.
	thirdIdx := 3 - ownerIdx - succIdx
	got, err := plandclient.New(httpSrvs[thirdIdx].URL).GetSession(ctx, sess.ID)
	if err != nil {
		t.Fatalf("GetSession after handoff: %v", err)
	}
	if got.Fingerprint != sess.Fingerprint {
		t.Fatalf("fingerprint changed across handoff: %s -> %s", sess.Fingerprint, got.Fingerprint)
	}
	if got.Node != wantSuccessor {
		t.Fatalf("session served by %s, want successor %s", got.Node, wantSuccessor)
	}

	// The handed-off session is live, not a read-only copy.
	if _, err := plandclient.New(httpSrvs[succIdx].URL).UpdateSession(ctx, sess.ID, plandclient.AddDelta(4)); err != nil {
		t.Fatalf("UpdateSession on successor: %v", err)
	}
}

// TestHandoffFingerprintVerification: the receiver recomputes the state
// fingerprint and refuses a mismatched transfer; a duplicate ID conflicts.
func TestHandoffFingerprintVerification(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	ctx := context.Background()

	donor, err := s.planner.NewSession(ctx, assign.Capacity(10), assign.A2A([]assign.Size{3, 4}), assign.ManualRebuild())
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer donor.Close()
	st := donor.State()

	post := func(id, fp string) *http.Response {
		t.Helper()
		body, err := json.Marshal(handoffRequest{ID: id, State: st, Fingerprint: fp})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/internal/handoff", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Wrong fingerprint: refused, nothing installed.
	resp := post("s-bad", "deadbeef")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched fingerprint accepted: HTTP %d", resp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, resp); code != codeUnprocessable {
		t.Fatalf("error code = %s", code)
	}

	// Correct fingerprint: installed and served.
	good := fmt.Sprintf("%016x", st.Fingerprint())
	resp = post("s-handoff", good)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid handoff refused: HTTP %d", resp.StatusCode)
	}
	var out handoffResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint != good || out.Inputs != 2 {
		t.Fatalf("handoff ack = %+v", out)
	}

	// Same ID again: conflict, the live session is not clobbered.
	resp = post("s-handoff", good)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate handoff got HTTP %d, want 409", resp.StatusCode)
	}
}

// TestReadyzLifecycle: /readyz is 200 only between boot-recovery completion
// and the start of a drain; /healthz stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	s := newServer(assign.NewPlanner(assign.PlannerConfig{}), serverConfig{})
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d", got)
	}
	s.ready.Store(false) // as during boot recovery
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("recovering server /readyz = %d, want 503", got)
	}
	s.ready.Store(true)
	s.startDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining server /readyz = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("draining server /healthz = %d, want 200 (liveness, not readiness)", got)
	}
}

// TestFleetPlanCache: one node's solve serves the whole fleet. The canonical
// key's owner holds the cache shard; a solve elsewhere publishes to it, and
// later isomorphic requests — through any node — come back as fleet hits,
// each renamed to that request's own input order (and X/Y sides).
func TestFleetPlanCache(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	req := plandclient.PlanRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{3, 3, 2, 2, 4, 1}}
	fp, ok := planKey(planRequest{Problem: req.Problem, Capacity: req.Capacity, Sizes: req.Sizes})
	if !ok {
		t.Fatal("planKey rejected a valid request")
	}
	owner := servers[0].cluster.ring.Lookup(fp.key)
	ownerIdx := nodeIndex(t, httpSrvs, owner)
	solverIdx := (ownerIdx + 1) % len(httpSrvs) // deliberately not the owner

	first, err := plandclient.New(httpSrvs[solverIdx].URL).Plan(ctx, req)
	if err != nil {
		t.Fatalf("Plan on non-owner: %v", err)
	}
	if first.FleetCacheHit {
		t.Fatal("first solve reported a fleet cache hit")
	}
	checkServedPlan(t, req, first)
	awaitPublished(t, servers[ownerIdx], fp.key)

	// An isomorphic instance (same multiset, different order) through the
	// owner and through a third node must both be fleet hits now.
	iso := req
	iso.Sizes = []assign.Size{1, 4, 2, 2, 3, 3}
	for _, idx := range []int{ownerIdx, (ownerIdx + 2) % len(httpSrvs)} {
		got, err := plandclient.New(httpSrvs[idx].URL).Plan(ctx, iso)
		if err != nil {
			t.Fatalf("Plan via node %d: %v", idx, err)
		}
		if !got.FleetCacheHit {
			t.Fatalf("node %d solved instead of serving the fleet cache", idx)
		}
		if got.Reducers != first.Reducers || got.Communication != first.Communication {
			t.Fatalf("fleet-cached result diverged: %+v vs %+v", got, first)
		}
		checkServedPlan(t, iso, got)
	}

	// NoCache opts out of the fleet layer entirely.
	nc := req
	nc.NoCache = true
	got, err := plandclient.New(httpSrvs[ownerIdx].URL).Plan(ctx, nc)
	if err != nil {
		t.Fatalf("Plan with NoCache: %v", err)
	}
	if got.FleetCacheHit {
		t.Fatal("no_cache request served from the fleet cache")
	}

	// X2Y with the sides swapped (and each side reordered) shares the key;
	// the hit must come back with X IDs on the X side and Y IDs on the Y side.
	xreq := plandclient.PlanRequest{Problem: "X2Y", Capacity: 10,
		XSizes: []assign.Size{7, 2, 1}, YSizes: []assign.Size{1, 2, 1, 1}}
	swapped := plandclient.PlanRequest{Problem: "X2Y", Capacity: 10,
		XSizes: []assign.Size{1, 1, 2, 1}, YSizes: []assign.Size{2, 7, 1}}
	xfp, _ := planKey(planRequest{Problem: xreq.Problem, Capacity: xreq.Capacity, XSizes: xreq.XSizes, YSizes: xreq.YSizes})
	sfp, _ := planKey(planRequest{Problem: swapped.Problem, Capacity: swapped.Capacity, XSizes: swapped.XSizes, YSizes: swapped.YSizes})
	if xfp.key != sfp.key || xfp.swapped == sfp.swapped {
		t.Fatalf("swapped X2Y request keyed %q (swapped=%v), original %q (swapped=%v)", sfp.key, sfp.swapped, xfp.key, xfp.swapped)
	}
	xOwnerIdx := nodeIndex(t, httpSrvs, servers[0].cluster.ring.Lookup(xfp.key))
	xfirst, err := plandclient.New(httpSrvs[(xOwnerIdx+1)%len(httpSrvs)].URL).Plan(ctx, xreq)
	if err != nil {
		t.Fatalf("X2Y plan: %v", err)
	}
	checkServedPlan(t, xreq, xfirst)
	awaitPublished(t, servers[xOwnerIdx], xfp.key)
	// Hits go to the swapped request and to a reordering of the original, so
	// both renaming directions are served from the one canonical entry.
	reordered := plandclient.PlanRequest{Problem: "X2Y", Capacity: 10,
		XSizes: []assign.Size{1, 7, 2}, YSizes: []assign.Size{1, 1, 2, 1}}
	for _, hreq := range []plandclient.PlanRequest{swapped, reordered} {
		for _, idx := range []int{xOwnerIdx, (xOwnerIdx + 2) % len(httpSrvs)} {
			got, err := plandclient.New(httpSrvs[idx].URL).Plan(ctx, hreq)
			if err != nil {
				t.Fatalf("X2Y plan %+v via node %d: %v", hreq, idx, err)
			}
			if !got.FleetCacheHit {
				t.Fatalf("node %d solved X2Y %+v instead of serving the fleet cache", idx, hreq)
			}
			if got.Reducers != xfirst.Reducers || got.Communication != xfirst.Communication {
				t.Fatalf("fleet-cached X2Y result diverged: %+v vs %+v", got, xfirst)
			}
			checkServedPlan(t, hreq, got)
		}
	}
}

// TestFleetCacheDecodeRejectsForeignEntries: a fleet-cache value whose schema
// is of the other problem or names canonical positions the request lacks is
// a miss, not a panic or a schema over IDs the request does not have.
func TestFleetCacheDecodeRejectsForeignEntries(t *testing.T) {
	fp, _ := planKey(planRequest{Problem: "A2A", Capacity: 10, Sizes: []assign.Size{4, 3, 5}})
	for _, raw := range []string{
		`{"schema":{"problem":"A2A","capacity":10,"reducers":[{"inputs":[0,3],"load":8}]}}`,
		`{"schema":{"problem":"A2A","capacity":10,"reducers":[{"inputs":[-1,0],"load":8}]}}`,
		`{"schema":{"problem":"X2Y","capacity":10,"reducers":[{"x_inputs":[0],"y_inputs":[1],"load":8}]}}`,
		`{"schema":null}`,
		`not json`,
	} {
		if resp := fp.decodeCached([]byte(raw)); resp != nil {
			t.Errorf("decodeCached(%s) = %+v, want a miss", raw, resp)
		}
	}
	// The round trip through the codec renames back to the request's IDs.
	resp := &planResponse{Schema: &assign.MappingSchema{Problem: assign.ProblemA2A, Capacity: 10,
		Reducers: []assign.Reducer{{Inputs: []int{0, 1}, Load: 7}, {Inputs: []int{1, 2}, Load: 8}, {Inputs: []int{0, 2}, Load: 9}}}}
	got := fp.decodeCached(fp.marshalCached(resp))
	if got == nil || !got.FleetCacheHit || !bytes.Equal(got.Schema.AppendJSON(nil), resp.Schema.AppendJSON(nil)) {
		t.Fatalf("codec round trip = %+v, want %+v as a hit", got, resp)
	}
}

// awaitPublished waits for the asynchronous publish of key to land in the
// node's fleet cache shard.
func awaitPublished(t *testing.T, s *server, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.cluster.cache.Get(key); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("solved result never reached the owner's cache shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkServedPlan validates a served schema against the request's own sizes
// and order: every required pair covered, no reducer over capacity.
func checkServedPlan(t *testing.T, req plandclient.PlanRequest, res *plandclient.PlanResult) {
	t.Helper()
	var err error
	if req.Problem == "X2Y" {
		err = res.Schema.ValidateX2Y(assign.MustNewInputSet(req.XSizes), assign.MustNewInputSet(req.YSizes))
	} else {
		err = res.Schema.ValidateA2A(assign.MustNewInputSet(req.Sizes))
	}
	if err != nil {
		t.Fatalf("served schema (fleet hit %v) invalid for %+v: %v", res.FleetCacheHit, req, err)
	}
}

// TestForwardReroutesAroundDeadPeer: when a keyed request's owner is dead,
// the hop guard plus the shared ring walk land the request on the successor
// — the same node a drain would have handed the key to.
func TestForwardReroutesAroundDeadPeer(t *testing.T) {
	servers, httpSrvs := newTestCluster(t, 3)
	ctx := context.Background()

	sess, err := plandclient.New(httpSrvs[0].URL).CreateSession(ctx, plandclient.SessionCreateRequest{
		Capacity: 10, Sizes: []assign.Size{2, 3},
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	ownerIdx := nodeIndex(t, httpSrvs, sess.Node)
	otherIdx := (ownerIdx + 1) % len(httpSrvs)

	// Kill the owner's listener. The next GET through another node marks the
	// owner down on the transport failure and reroutes to the successor,
	// which answers 404 — the session died with its node (it was in-memory);
	// what matters here is a clean envelope, not a hang or a 502 loop.
	httpSrvs[ownerIdx].CloseClientConnections()
	httpSrvs[ownerIdx].Close()
	_, err = plandclient.New(httpSrvs[otherIdx].URL).GetSession(ctx, sess.ID)
	if err == nil {
		t.Fatal("GET for a dead node's session succeeded")
	}
	if !plandclient.IsCode(err, plandclient.CodeNotFound) && !plandclient.IsCode(err, plandclient.CodePeerUnreachable) {
		t.Fatalf("unexpected failure shape: %v", err)
	}
	if alive := servers[otherIdx].cluster.health.Alive(httpSrvs[ownerIdx].URL); alive {
		t.Fatal("transport failure did not mark the dead owner down")
	}
}
