package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/pkg/assign"
	"repro/pkg/assign/plandclient"
)

// Fleet headers. X-Pland-Forwarded carries the sender node on a proxied
// request and is the hop guard: a request that already hopped once is served
// (or 404s) where it lands, never proxied again, so divergent liveness views
// bounce a request at most once instead of looping it. X-Pland-Key pins the
// randomly drawn session/job ID on a forwarded create; it is honored only
// together with the forwarded header, so external clients cannot choose IDs.
const (
	headerForwarded = "X-Pland-Forwarded"
	headerPinnedID  = "X-Pland-Key"
)

var (
	obsForwarded = obs.Default.CounterVec("pland_cluster_forwarded_total",
		"Requests proxied to the key's owning peer.", "peer")
	obsForwardErrors = obs.Default.CounterVec("pland_cluster_forward_errors_total",
		"Proxied requests that died at the transport (the peer is marked down).", "peer")
	obsHandoffs = obs.Default.CounterVec("pland_cluster_handoffs_total",
		"Drain-time session handoffs by outcome (sent, send_failed, received, refused).", "outcome")
	obsFleetProbes = obs.Default.CounterVec("pland_fleet_probe_total",
		"Fleet-cache probes to remote owners, by outcome (hit, miss, error).", "outcome")
)

// cluster is the ownership-aware routing layer of one pland node: the
// consistent-hash ring every node computes identically, the local liveness
// view that routes around dead peers, this node's shard of the fleet plan
// cache, and one plandclient per peer for the structured fleet calls
// (readiness probes, session handoff, cache probe/publish). Raw keyed API
// traffic is proxied with c.proxy instead so arbitrary methods and bodies
// pass through untouched.
type cluster struct {
	self    string
	ring    *shard.Ring
	health  *shard.Health
	cache   *shard.ResultCache
	clients map[string]*plandclient.Client
	proxy   *http.Client
	maxBody int64
	log     *slog.Logger
}

// newCluster wires the fleet layer from a normalized serverConfig. The caller
// starts (and stops) health probing; a fresh cluster treats every peer as
// alive until probes or forward failures say otherwise.
func newCluster(cfg serverConfig, log *slog.Logger) (*cluster, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: -peers needs -self (this node's advertised URL)")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: -self %q is not in -peers %v", cfg.Self, cfg.Peers)
	}
	ring, err := shard.New(cfg.Peers)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Proxied calls may carry a full synchronous solve; give them the solve
	// budget plus headroom rather than a generic client timeout.
	timeout := cfg.MaxTimeout + 15*time.Second
	c := &cluster{
		self:    cfg.Self,
		ring:    ring,
		cache:   shard.NewResultCache(cfg.FleetCacheEntries),
		clients: make(map[string]*plandclient.Client, len(cfg.Peers)),
		proxy:   &http.Client{Timeout: timeout},
		maxBody: cfg.MaxBodyBytes,
		log:     log,
	}
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			continue
		}
		c.clients[p] = plandclient.New(p, plandclient.WithHTTPClient(&http.Client{Timeout: timeout}))
	}
	c.health = shard.NewHealth(shard.HealthConfig{
		Self:      cfg.Self,
		Peers:     cfg.Peers,
		Probe:     c.probe,
		Interval:  cfg.HealthInterval,
		FailAfter: cfg.HealthFailAfter,
	})
	return c, nil
}

// probe is one readiness check: a raw GET /readyz round trip, deliberately
// not through plandclient so the retry layer cannot stretch one probe across
// most of a probe interval. Draining peers answer 503 and so read as down,
// which steers forwarded traffic away before their listener closes.
func (c *cluster) probe(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return err
	}
	// Probes originate here, not from a client request, so they mint their
	// own correlation identity — without it the peer's request log has no way
	// to say which prober produced a line.
	req.Header.Set(requestIDHeader, obs.NewRequestID())
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	resp, err := c.proxy.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// routeKeyed forwards a keyed request (/v2/sessions/{id}, /v2/jobs/{id}) to
// its ring owner when that is another node. It reports true when the request
// was fully handled here (proxied, or failed); false means the caller serves
// it locally — because this node owns the key, the request already hopped
// once, or rerouting around a dead owner landed back on this node.
func (s *server) routeKeyed(w http.ResponseWriter, r *http.Request, key string) bool {
	c := s.cluster
	if c == nil || r.Header.Get(headerForwarded) != "" {
		return false
	}
	owner, ok := c.ring.Owner(key, c.health.Alive)
	if !ok || owner == c.self {
		return false
	}
	return c.forward(w, r, key, owner, "")
}

// forward proxies the request to target, rerouting around peers that fail at
// the transport (each failure marks the peer down, so the ring walk lands on
// the next successor). It returns false when rerouting lands on this node —
// the body has been restored and the caller should serve locally.
func (c *cluster) forward(w http.ResponseWriter, r *http.Request, key, target, pin string) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.maxBody))
	if err != nil {
		writeAPIError(w, badRequestf("reading request: %v", err))
		return true
	}
	for {
		err := c.forwardOnce(w, r, body, target, pin)
		if err == nil {
			return true
		}
		c.health.MarkDown(target)
		obsForwardErrors.With(target).Inc()
		c.log.Warn("peer unreachable; rerouting", "peer", target, "key", key, "error", err)
		next, ok := c.ring.Owner(key, c.health.Alive)
		if !ok || next == target {
			writeAPIError(w, &apiError{Status: http.StatusBadGateway, Code: codePeerUnreachable,
				Message: fmt.Sprintf("owner %s unreachable and no live successor", target)})
			return true
		}
		if next == c.self {
			r.Body = io.NopCloser(bytes.NewReader(body))
			return false
		}
		target = next
	}
}

// forwardOnce is one proxy round trip. It writes the response only after the
// exchange succeeded, so a transport failure leaves the ResponseWriter
// untouched and the caller free to reroute.
func (c *cluster) forwardOnce(w http.ResponseWriter, r *http.Request, body []byte, target, pin string) error {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	// The hop is a child span of the request, and its traceparent rides the
	// proxied request, so the owner's root span joins this trace.
	ctx, fsp := obs.StartSpan(r.Context(), "forward")
	fsp.SetAttr("peer", target)
	defer fsp.End()
	req, err := http.NewRequestWithContext(ctx, r.Method, target+r.URL.RequestURI(), rd)
	if err != nil {
		fsp.SetError(err.Error())
		return err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	// Propagate the correlation ID withObs already stamped on the response,
	// so one request keeps one ID across every hop's logs.
	if rid := w.Header().Get(requestIDHeader); rid != "" {
		req.Header.Set(requestIDHeader, rid)
	}
	if tp := fsp.TraceContext().Traceparent(); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	req.Header.Set(headerForwarded, c.self)
	if pin != "" {
		req.Header.Set(headerPinnedID, pin)
	}
	resp, err := c.proxy.Do(req)
	if err != nil {
		fsp.SetError(err.Error())
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	obsForwarded.With(target).Inc()
	return nil
}

// pinnedID returns the creation ID a forwarded create pinned, if any. The
// pin is honored only on requests that carry the forwarded header: external
// clients cannot choose their own IDs.
func pinnedID(r *http.Request) string {
	if r.Header.Get(headerForwarded) == "" {
		return ""
	}
	id := r.Header.Get(headerPinnedID)
	if len(id) > 64 || strings.ContainsAny(id, "/%\\") {
		return ""
	}
	return id
}

// newJobID mirrors the job manager's 16-byte random hex IDs for cluster
// submissions, where the ID must exist before enqueue so placement can route
// the create to the ID's owner.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("pland: reading random job ID: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// fleetPlan is a plan request's place in the fleet cache: its key, and the
// renaming between the request's input IDs and the canonical positions the
// cached schema is stored in. Canonical position i of a side is its i-th
// input in ascending (size, ID) order; for X2Y the canonical X side is the
// one planKey orders first. Every requester of one key renames the same
// canonical schema through its own permutations, so a hit is always a valid
// schema over the requester's IDs, whatever order the solver saw.
type fleetPlan struct {
	key string
	// perm[i] is the request ID at canonical position i of the A2A set or
	// the canonical X side; yPerm likewise for the canonical Y side.
	perm, yPerm []int
	// swapped reports that the canonical X side is the request's Y side.
	swapped bool
}

// planKey canonicalizes a plan request into its fleet-cache key: problem,
// capacity, and the size multiset(s), independent of input order (and of the
// X/Y side labels, which the planner also treats symmetrically). The timeout
// is deliberately not part of the key, matching the node-local canonical
// cache: an already-solved isomorphic instance is served as solved. The key
// is a 128-bit FNV-1a of the canonical string, so collisions are negligible
// and the key is URL- and ring-friendly.
func planKey(body planRequest) (fleetPlan, bool) {
	var b strings.Builder
	// writeSide returns a side's canonical size list and permutation, in the
	// planner's canonical order; invalid sizes are left unkeyed for runPlan
	// to reject.
	writeSide := func(sizes []assign.Size) (string, []int, bool) {
		set, err := assign.NewInputSet(sizes)
		if err != nil {
			return "", nil, false
		}
		var sb strings.Builder
		for i, sz := range set.CanonicalSizes() {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatInt(int64(sz), 10))
		}
		return sb.String(), set.CanonicalPermutation(), true
	}
	var fp fleetPlan
	switch strings.ToLower(body.Problem) {
	case "a2a":
		side, perm, ok := writeSide(body.Sizes)
		if !ok {
			return fp, false
		}
		fp.perm = perm
		fmt.Fprintf(&b, "a2a|%d|%s", body.Capacity, side)
	case "x2y":
		x, xPerm, xok := writeSide(body.XSizes)
		y, yPerm, yok := writeSide(body.YSizes)
		if !xok || !yok {
			return fp, false
		}
		fp.perm, fp.yPerm = xPerm, yPerm
		if x > y {
			x, y = y, x
			fp.perm, fp.yPerm, fp.swapped = yPerm, xPerm, true
		}
		fmt.Fprintf(&b, "x2y|%d|%s|%s", body.Capacity, x, y)
	default:
		return fp, false
	}
	h := fnv.New128a()
	_, _ = io.WriteString(h, b.String())
	fp.key = "p-" + hex.EncodeToString(h.Sum(nil))
	return fp, true
}

// marshalCached and decodeCached are the fleet-cache value codec: the full
// planResponse JSON with its schema in canonical positions, renamed back to
// the requester's IDs and stamped as a hit on the way out.
func (fp fleetPlan) marshalCached(resp *planResponse) []byte {
	cp := *resp
	cp.FleetCacheHit = false
	// The inverse of decodeCached's renaming: Renamed maps, then swaps.
	xInv, yInv := inverse(fp.perm), inverse(fp.yPerm)
	if fp.swapped {
		xInv, yInv = yInv, xInv
	}
	cp.Schema = resp.Schema.Renamed(xInv, yInv, fp.swapped)
	return cp.appendJSON(nil)
}

// decodeCached returns nil for a value that does not decode to a schema of
// this request's shape — a corrupt or foreign entry is a miss, never a panic
// or a schema over IDs the request does not have.
func (fp fleetPlan) decodeCached(raw []byte) *planResponse {
	var resp planResponse
	if err := json.Unmarshal(raw, &resp); err != nil || resp.Schema == nil ||
		!fp.fits(resp.Schema) {
		return nil
	}
	resp.Schema = resp.Schema.Renamed(fp.perm, fp.yPerm, fp.swapped)
	resp.FleetCacheHit = true
	return &resp
}

// fits reports whether a canonical schema is of this request's problem and
// references only canonical positions the request has.
func (fp fleetPlan) fits(ms *assign.MappingSchema) bool {
	inRange := func(ids []int, n int) bool {
		for _, id := range ids {
			if id < 0 || id >= n {
				return false
			}
		}
		return true
	}
	x2y := fp.yPerm != nil
	if ms.Problem != assign.ProblemA2A && ms.Problem != assign.ProblemX2Y ||
		(ms.Problem == assign.ProblemX2Y) != x2y {
		return false
	}
	for _, r := range ms.Reducers {
		if !inRange(r.Inputs, len(fp.perm)) || !inRange(r.XInputs, len(fp.perm)) || !inRange(r.YInputs, len(fp.yPerm)) {
			return false
		}
	}
	return true
}

// inverse returns the inverse of a permutation (nil for nil).
func inverse(perm []int) []int {
	if perm == nil {
		return nil
	}
	inv := make([]int, len(perm))
	for i, id := range perm {
		inv[id] = i
	}
	return inv
}

// planFleet is handlePlan's solve path under clustering: the canonical key's
// ring owner holds the one fleet-wide cache shard for the instance, so the
// probe goes there before this node spends a solve, and the solved result is
// published back there afterwards. Cold solves always run locally — only
// cache traffic crosses the wire — and every fleet failure degrades to the
// single-node path.
func (s *server) planFleet(ctx context.Context, body planRequest) (*planResponse, *apiError) {
	c := s.cluster
	var fp fleetPlan
	keyed := false
	if c != nil && !body.NoCache {
		fp, keyed = planKey(body)
	}
	if !keyed {
		return s.runPlan(ctx, body, s.cfg.MaxTimeout)
	}
	key := fp.key
	owner, ok := c.ring.Owner(key, c.health.Alive)
	if !ok {
		return s.runPlan(ctx, body, s.cfg.MaxTimeout)
	}
	if owner == c.self {
		if raw, hit := c.cache.Get(key); hit {
			if resp := fp.decodeCached(raw); resp != nil {
				return resp, nil
			}
		}
		resp, aerr := s.runPlan(ctx, body, s.cfg.MaxTimeout)
		if aerr == nil {
			c.cache.Put(key, fp.marshalCached(resp))
		}
		return resp, aerr
	}
	cctx, csp := obs.StartSpan(ctx, "fleet_cache_get")
	csp.SetAttr("peer", owner)
	raw, err := c.clients[owner].FleetCacheGet(cctx, key)
	if err != nil {
		csp.SetError(err.Error())
	}
	csp.End()
	switch {
	case err != nil:
		obsFleetProbes.With("error").Inc()
		if plandclient.IsCode(err, plandclient.CodeTransport) {
			c.health.MarkDown(owner)
		}
	case raw != nil:
		if resp := fp.decodeCached(raw); resp != nil {
			obsFleetProbes.With("hit").Inc()
			return resp, nil
		}
		obsFleetProbes.With("error").Inc()
	default:
		obsFleetProbes.With("miss").Inc()
	}
	resp, aerr := s.runPlan(ctx, body, s.cfg.MaxTimeout)
	if aerr == nil && err == nil {
		// Capture the request's trace identity now: the publish outlives the
		// request context but should still correlate on the peer.
		tc, _ := obs.TraceContextFrom(ctx)
		go c.publish(owner, key, fp.marshalCached(resp), obs.RequestID(ctx), tc)
	}
	return resp, aerr
}

// publish ships a freshly solved result to the key owner's cache shard,
// detached from the request that solved it but still carrying its request ID
// and trace context so the peer's logs correlate back to the solving request.
func (c *cluster) publish(owner, key string, raw []byte, rid string, tc obs.TraceContext) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rid == "" {
		rid = obs.NewRequestID()
	}
	ctx = obs.WithRequestID(ctx, rid)
	ctx = obs.WithTraceContext(ctx, tc)
	if err := c.clients[owner].FleetCachePut(ctx, key, raw); err != nil {
		c.log.Warn("fleet cache publish failed", "peer", owner, "error", err, "request_id", rid)
	}
}

// handleFleetCache serves GET and PUT /internal/cache/{key}: this node's
// shard of the fleet plan cache. Values are opaque JSON documents; ownership
// is the caller's concern (peers only probe keys this node owns).
func (s *server) handleFleetCache(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeAPIError(w, notFound("not clustered"))
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/internal/cache/")
	if key == "" || strings.Contains(key, "/") {
		writeAPIError(w, notFound("no such cache key"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		raw, ok := s.cluster.cache.Get(key)
		if !ok {
			writeAPIError(w, notFound("cache miss"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(raw)
	case http.MethodPut:
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			writeAPIError(w, badRequestf("reading cache value: %v", err))
			return
		}
		if !json.Valid(raw) {
			writeAPIError(w, badRequestf("cache value is not valid JSON"))
			return
		}
		s.cluster.cache.Put(key, raw)
		w.WriteHeader(http.StatusNoContent)
	default:
		writeAPIError(w, methodNotAllowed("GET or PUT"))
	}
}

// handoffRequest mirrors plandclient.HandoffRequest on the receiving side.
type handoffRequest struct {
	ID          string               `json:"id"`
	State       *assign.SessionState `json:"state"`
	Fingerprint string               `json:"fingerprint"`
	Meta        json.RawMessage      `json:"meta,omitempty"`
}

type handoffResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	Inputs      int    `json:"inputs"`
}

// handleHandoff serves POST /internal/handoff: a draining peer ships one
// live session here. The state's fingerprint is recomputed and checked
// against the sender's stamp before anything is installed — a corrupt
// transfer is refused, never served — and a durable receiver immediately
// re-anchors the session in its own WAL. Handoffs are accepted even past
// -max-sessions: refusing would drop live client state to enforce a soft
// capacity bound.
func (s *server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, methodNotAllowed("POST"))
		return
	}
	var body handoffRequest
	if aerr := s.decodeBody(w, r, &body); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	if body.ID == "" || body.State == nil {
		writeAPIError(w, badRequestf("handoff needs an id and a state"))
		return
	}
	want, err := strconv.ParseUint(body.Fingerprint, 16, 64)
	if err != nil {
		writeAPIError(w, badRequestf("fingerprint %q is not hex: %v", body.Fingerprint, err))
		return
	}
	if got := body.State.Fingerprint(); got != want {
		obsHandoffs.With("refused").Inc()
		writeAPIError(w, &apiError{Status: http.StatusUnprocessableEntity, Code: codeUnprocessable,
			Message: fmt.Sprintf("handoff fingerprint mismatch: sender stamped %016x, state is %016x", want, got)})
		return
	}
	s.sessMu.Lock()
	_, dup := s.sessions[body.ID]
	s.sessMu.Unlock()
	if dup {
		obsHandoffs.With("refused").Inc()
		writeAPIError(w, &apiError{Status: http.StatusConflict, Code: codeConflict,
			Message: fmt.Sprintf("session %s already lives here", body.ID)})
		return
	}
	entry, err := s.installSession(body.ID, body.State, nil, body.Meta)
	if err != nil {
		obsHandoffs.With("refused").Inc()
		writeAPIError(w, &apiError{Status: http.StatusUnprocessableEntity, Code: codeUnprocessable,
			Message: fmt.Sprintf("restoring handed-off session: %v", err)})
		return
	}
	if s.wal != nil {
		if err := entry.sess.WriteSnapshot(); err != nil {
			s.log.Warn("handed-off session not yet journaled", "session", body.ID, "error", err)
		}
	}
	obsHandoffs.With("received").Inc()
	s.log.Info("session handed off here", "session", body.ID, "inputs", entry.sess.Len())
	writeJSON(w, http.StatusCreated, handoffResponse{
		ID:          body.ID,
		Fingerprint: fmt.Sprintf("%016x", want),
		Inputs:      entry.sess.Len(),
	})
}

// handoffSessions ships every live session to its ring successor during a
// graceful drain. A session whose handoff fails stays registered — the final
// WAL checkpoint keeps it, so a later restart of this node still recovers
// it; only acknowledged transfers are closed and marked closed in the WAL so
// the restart cannot resurrect a session now served elsewhere.
func (s *server) handoffSessions(ctx context.Context) {
	c := s.cluster
	if c == nil {
		return
	}
	s.sessMu.Lock()
	entries := make([]*sessionEntry, 0, len(s.sessions))
	for _, e := range s.sessions {
		entries = append(entries, e)
	}
	s.sessMu.Unlock()
	for _, e := range entries {
		target, ok := c.ring.Successor(e.id, c.self, c.health.Alive)
		if !ok {
			obsHandoffs.With("send_failed").Inc()
			s.log.Warn("no live successor; session stays in the WAL", "session", e.id)
			continue
		}
		st := e.sess.State()
		if st == nil {
			obsHandoffs.With("send_failed").Inc()
			s.log.Warn("session state unavailable; not handed off", "session", e.id)
			continue
		}
		req := plandclient.HandoffRequest{
			ID:          e.id,
			State:       st,
			Fingerprint: fmt.Sprintf("%016x", st.Fingerprint()),
			Meta:        e.meta,
		}
		if _, err := c.clients[target].Handoff(ctx, req); err != nil {
			obsHandoffs.With("send_failed").Inc()
			s.log.Warn("handoff failed; session stays in the WAL",
				"session", e.id, "peer", target, "error", err)
			continue
		}
		obsHandoffs.With("sent").Inc()
		s.log.Info("session handed off", "session", e.id, "peer", target, "inputs", e.sess.Len())
		s.sessMu.Lock()
		delete(s.sessions, e.id)
		s.sessMu.Unlock()
		s.cancelRebuild(e)
		e.sess.Close()
		s.journalSessionClose(ctx, e.id)
	}
}

// handleReadyz serves GET /readyz: readiness, as opposed to /healthz's
// liveness. It answers 503 both before boot recovery finished and from the
// moment a drain starts, which is what peers probe and what steers forwarded
// traffic away from a node that is about to stop serving.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "starting")
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	default:
		fmt.Fprintln(w, "ok")
	}
}

// startDrain flips readiness off; probes see 503 from here on while the
// listener keeps serving through the drain grace and handoff.
func (s *server) startDrain() { s.draining.Store(true) }

// clusterStats is the cluster block of GET /v1/stats.
type clusterStats struct {
	Self              string          `json:"self"`
	Nodes             []string        `json:"nodes"`
	Peers             map[string]bool `json:"peers"`
	FleetCacheEntries int             `json:"fleet_cache_entries"`
}

func (c *cluster) stats() *clusterStats {
	return &clusterStats{
		Self:              c.self,
		Nodes:             c.ring.Nodes(),
		Peers:             c.health.Snapshot(),
		FleetCacheEntries: c.cache.Len(),
	}
}
