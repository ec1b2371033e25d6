package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/pkg/assign"
)

// serverConfig bounds what one request — synchronous or queued — may cost
// the service.
type serverConfig struct {
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	MaxBodyBytes   int64
	MaxInputs      int
	// MaxExecInputs caps execute instances separately: execution does
	// quadratic pair work, so its ceiling sits far below the planning cap.
	MaxExecInputs int
	// JobWorkers, QueueDepth, and ResultTTL shape the v2 job queue.
	JobWorkers int
	QueueDepth int
	ResultTTL  time.Duration
	// MaxJobTimeout caps the planning budget of one async job; it may far
	// exceed MaxTimeout because nothing blocks on the answer.
	MaxJobTimeout time.Duration
	// MaxSessions bounds how many v2 sessions may be live at once, and
	// MaxSessionInputs bounds the live inputs of each.
	MaxSessions      int
	MaxSessionInputs int
	// DebugAddr is the separate listener -debug-addr serves /metrics,
	// /debug/pprof, and /debug/traces on; when empty they mount on the main
	// mux instead.
	DebugAddr string
	// TraceSampleRate, TraceSlow, and TraceBufferEntries shape the flight
	// recorder (see internal/obs): the fraction of fast-OK traces kept, the
	// latency at which a trace is always kept, and the ring capacity.
	TraceSampleRate    float64
	TraceSlow          time.Duration
	TraceBufferEntries int
	// Logger receives one structured line per request; nil uses slog.Default.
	Logger *slog.Logger
	// DataDir, when non-empty, makes sessions and queued jobs durable: a WAL
	// lives under it, boot replays it (see newDurableServer), and Fsync,
	// FsyncInterval, and CheckpointInterval shape the log's disciplines.
	DataDir            string
	Fsync              wal.Policy
	FsyncInterval      time.Duration
	CheckpointInterval time.Duration
	// Self and Peers wire the node into a static fleet (see cluster.go):
	// Peers is every node's advertised base URL including this one, Self is
	// this node's own entry. Empty Peers runs single-node with no cluster
	// layer at all. HealthInterval/HealthFailAfter shape peer readiness
	// probing; FleetCacheEntries sizes this node's fleet plan-cache shard.
	Self              string
	Peers             []string
	HealthInterval    time.Duration
	HealthFailAfter   int
	FleetCacheEntries int
}

// server is the HTTP front end over the assign SDK. It is a plain
// http.Handler so tests drive it through httptest without a listener.
type server struct {
	planner  *assign.Planner
	jobs     *jobs.Manager
	cfg      serverConfig
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the observability middleware
	log      *slog.Logger
	recorder *obs.Recorder
	started  time.Time

	sessMu   sync.Mutex
	sessions map[string]*sessionEntry

	// Cluster layer (nil single-node; see cluster.go). ready flips once boot
	// recovery finished; draining flips when shutdown starts — /readyz is the
	// AND of the two, and peers probe it.
	cluster  *cluster
	ready    atomic.Bool
	draining atomic.Bool

	// Durability (nil/zero without -data-dir; see durability.go).
	wal            *wal.Log
	walMu          sync.Mutex
	walJobs        map[string]walJob
	checkpointStop chan struct{}
	checkpointOnce sync.Once
	checkpointWG   sync.WaitGroup
}

func newServer(pl *assign.Planner, cfg serverConfig) *server {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = assign.DefaultTimeout
	}
	if cfg.MaxTimeout < cfg.DefaultTimeout {
		cfg.MaxTimeout = cfg.DefaultTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxInputs <= 0 {
		cfg.MaxInputs = 200_000
	}
	if cfg.MaxExecInputs <= 0 {
		cfg.MaxExecInputs = 1000
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.ResultTTL <= 0 {
		cfg.ResultTTL = 15 * time.Minute
	}
	if cfg.MaxJobTimeout < cfg.MaxTimeout {
		cfg.MaxJobTimeout = cfg.MaxTimeout
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.MaxSessionInputs <= 0 {
		cfg.MaxSessionInputs = 10_000
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &server{
		planner: pl,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		log:     cfg.Logger,
		recorder: obs.NewRecorder(obs.RecorderConfig{
			Capacity:      cfg.TraceBufferEntries,
			SampleRate:    cfg.TraceSampleRate,
			SlowThreshold: cfg.TraceSlow,
			Node:          cfg.Self,
		}),
		started:  time.Now(),
		sessions: make(map[string]*sessionEntry),
		walJobs:  make(map[string]walJob),
	}
	s.jobs = jobs.New(jobs.Config{
		Workers:    cfg.JobWorkers,
		QueueDepth: cfg.QueueDepth,
		ResultTTL:  cfg.ResultTTL,
		OnFinish:   s.jobFinished,
	})
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/execute", s.handleExecute)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v2/jobs", s.handleJobs)
	s.mux.HandleFunc("/v2/jobs/", s.handleJob)
	s.mux.HandleFunc("/v2/sessions", s.handleSessions)
	s.mux.HandleFunc("/v2/sessions/", s.handleSession)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/internal/handoff", s.handleHandoff)
	s.mux.HandleFunc("/internal/cache/", s.handleFleetCache)
	if cfg.DebugAddr == "" {
		s.registerDebug(s.mux)
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, notFound("no such endpoint"))
	})
	s.handler = withObs(s.log, s.recorder, s.mux)
	// Without a WAL there is no boot recovery to wait for; newDurableServer
	// flips readiness itself once recovery and the re-anchor checkpoint ran.
	if cfg.DataDir == "" {
		s.ready.Store(true)
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close drains the job queue — in-flight jobs that outlive ctx are marked
// failed with a shutdown reason — and then shuts every live session down.
// With a WAL, a final checkpoint runs first (so the compacted log carries the
// complete live state), drained jobs get no done records, and sessions get no
// close records: both re-appear intact on the next boot.
func (s *server) Close(ctx context.Context) error {
	if s.wal != nil {
		s.stopCheckpointer()
		if err := s.checkpoint(); err != nil {
			s.log.Warn("final wal checkpoint", "error", err)
		}
	}
	err := s.jobs.Shutdown(ctx)
	s.closeSessions()
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil {
			s.log.Warn("wal close", "error", cerr)
		}
	}
	return err
}

// Error envelope: every handler failure, v1 and v2, is
// {"error":{"code":"...","message":"..."}} with a stable machine-readable
// code and the HTTP status carried out of band.
const (
	codeBadRequest       = "bad_request"
	codeMethodNotAllowed = "method_not_allowed"
	codeNotFound         = "not_found"
	codeConflict         = "conflict"
	codeQueueFull        = "queue_full"
	codeSessionLimit     = "session_limit"
	codeUnprocessable    = "unprocessable"
	codePlanTimeout      = "plan_timeout"
	codeCanceled         = "canceled"
	codeShuttingDown     = "shutting_down"
	codePeerUnreachable  = "peer_unreachable"
	codeInternal         = "internal"
)

// apiError is one handler failure. It implements error (and unwraps to its
// cause) so it can round-trip through the jobs manager intact.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
	cause   error
}

func (e *apiError) Error() string { return e.Message }
func (e *apiError) Unwrap() error { return e.cause }

type errorEnvelope struct {
	Error *apiError `json:"error"`
}

func badRequestf(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: codeBadRequest, Message: fmt.Sprintf(format, args...)}
}

func methodNotAllowed(want string) *apiError {
	return &apiError{Status: http.StatusMethodNotAllowed, Code: codeMethodNotAllowed, Message: want + " required"}
}

func notFound(msg string) *apiError {
	return &apiError{Status: http.StatusNotFound, Code: codeNotFound, Message: msg}
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, errorEnvelope{Error: e})
}

// planError maps a planning failure to an envelope: budget/context
// exhaustion is a gateway timeout, everything else (e.g. an infeasible
// instance) is unprocessable.
func planError(err error) *apiError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &apiError{Status: http.StatusGatewayTimeout, Code: codePlanTimeout, Message: err.Error(), cause: err}
	}
	return &apiError{Status: http.StatusUnprocessableEntity, Code: codeUnprocessable, Message: err.Error(), cause: err}
}

// planRequest is the JSON body of POST /v1/plan and of the "plan" payload
// of a v2 job.
type planRequest struct {
	// Problem is "A2A" or "X2Y".
	Problem string `json:"problem"`
	// Capacity is the reducer capacity q.
	Capacity assign.Size `json:"capacity"`
	// Sizes holds the A2A input sizes; XSizes/YSizes the X2Y sides.
	Sizes  []assign.Size `json:"sizes,omitempty"`
	XSizes []assign.Size `json:"x_sizes,omitempty"`
	YSizes []assign.Size `json:"y_sizes,omitempty"`
	// TimeoutMS optionally overrides the planning budget, capped by the
	// server's -max-timeout (synchronous) or -max-job-timeout (v2 jobs). A
	// negative value requests the deterministic await-all mode (every
	// portfolio member is awaited; each is individually bounded). It only
	// shapes a fresh solve: an isomorphic instance already cached (or in
	// flight) is served as previously solved regardless of this value —
	// combine with NoCache to force a re-solve under this request's budget.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache skips the canonicalization cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

// planResponse is the JSON answer of POST /v1/plan and the result of a
// succeeded "plan" job.
type planResponse struct {
	Schema             *assign.MappingSchema `json:"schema"`
	Reducers           int                   `json:"reducers"`
	Communication      assign.Size           `json:"communication"`
	ReplicationRate    float64               `json:"replication_rate"`
	MaxLoad            assign.Size           `json:"max_load"`
	Winner             string                `json:"winner"`
	LowerBoundReducers int                   `json:"lower_bound_reducers"`
	Gap                int                   `json:"gap"`
	Candidates         int                   `json:"candidates"`
	CacheHit           bool                  `json:"cache_hit"`
	SharedFlight       bool                  `json:"shared_flight"`
	// FleetCacheHit marks a result served from the fleet-wide cluster cache
	// rather than a local solve (see planFleet in cluster.go).
	FleetCacheHit bool  `json:"fleet_cache_hit,omitempty"`
	ElapsedMicros int64 `json:"elapsed_us"`
}

// decodeBody decodes a JSON body under the server's size cap.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *apiError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("decoding request: %v", err)
	}
	return nil
}

func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, methodNotAllowed("POST"))
		return
	}
	var body planRequest
	if aerr := s.decodeBody(w, r, &body); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	// planFleet consults the fleet-wide cluster cache around the solve; it is
	// exactly runPlan when unclustered or when the client opted out of caching.
	resp, aerr := s.planFleet(ctx, body)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// validSizes rejects what assign.Plan itself would reject, but as an
// allocation-free 400 instead of a later 422.
func validSizes(field string, sizes []assign.Size) *apiError {
	if len(sizes) == 0 {
		return badRequestf("%s: no inputs", field)
	}
	for i, sz := range sizes {
		if sz <= 0 {
			return badRequestf("%s: input %d has non-positive size %d", field, i, sz)
		}
	}
	return nil
}

// validatePlan checks the wire request without building anything, so v2
// submit can fail malformed jobs fast and cheaply. Validation failures map
// uniformly to 400; failures from planning itself (e.g. infeasible
// instances) map to 422 later.
func (s *server) validatePlan(body planRequest) *apiError {
	if body.Capacity <= 0 {
		return badRequestf("capacity must be positive, got %d", body.Capacity)
	}
	if n := len(body.Sizes) + len(body.XSizes) + len(body.YSizes); n > s.cfg.MaxInputs {
		return badRequestf("instance has %d inputs, limit is %d", n, s.cfg.MaxInputs)
	}
	switch body.Problem {
	case "A2A", "a2a":
		return validSizes("sizes", body.Sizes)
	case "X2Y", "x2y":
		if aerr := validSizes("x_sizes", body.XSizes); aerr != nil {
			return aerr
		}
		return validSizes("y_sizes", body.YSizes)
	default:
		return badRequestf("problem must be A2A or X2Y, got %q", body.Problem)
	}
}

// planOptions assembles the SDK options for a validated request.
func (s *server) planOptions(body planRequest) ([]assign.Option, *apiError) {
	if aerr := s.validatePlan(body); aerr != nil {
		return nil, aerr
	}
	opts := []assign.Option{assign.Capacity(body.Capacity)}
	switch body.Problem {
	case "A2A", "a2a":
		opts = append(opts, assign.A2A(body.Sizes))
	default:
		opts = append(opts, assign.X2Y(body.XSizes, body.YSizes))
	}
	if body.NoCache {
		opts = append(opts, assign.NoCache())
	}
	return opts, nil
}

// runPlan is the one core both /v1/plan and "plan" jobs execute; maxBudget
// is the cap the surface grants (MaxTimeout synchronously, MaxJobTimeout
// for jobs).
func (s *server) runPlan(ctx context.Context, body planRequest, maxBudget time.Duration) (*planResponse, *apiError) {
	opts, aerr := s.planOptions(body)
	if aerr != nil {
		return nil, aerr
	}
	opts = append(opts, assign.Timeout(requestBudget(body.TimeoutMS, s.cfg.DefaultTimeout, maxBudget)))
	res, err := s.planner.Plan(ctx, opts...)
	if err != nil {
		return nil, planError(err)
	}
	return &planResponse{
		Schema:             res.Schema,
		Reducers:           res.Cost.Reducers,
		Communication:      res.Cost.Communication,
		ReplicationRate:    res.Cost.ReplicationRate,
		MaxLoad:            res.Cost.MaxLoad,
		Winner:             res.Winner,
		LowerBoundReducers: res.LowerBoundReducers,
		Gap:                res.Gap,
		Candidates:         res.Candidates,
		CacheHit:           res.CacheHit,
		SharedFlight:       res.SharedFlight,
		ElapsedMicros:      res.Elapsed.Microseconds(),
	}, nil
}

// requestBudget resolves a client timeout override against a surface cap.
func requestBudget(timeoutMS int, def, max time.Duration) time.Duration {
	switch {
	case timeoutMS < 0:
		return -1 // await-all mode; the request context still bounds the wait
	case timeoutMS > 0:
		// Clamp in milliseconds before converting so huge values cannot
		// overflow time.Duration and dodge the cap.
		ms := int64(timeoutMS)
		if maxMS := max.Milliseconds(); ms > maxMS {
			ms = maxMS
		}
		return time.Duration(ms) * time.Millisecond
	default:
		return def
	}
}

// executeRequest is the JSON body of POST /v1/execute and of the "execute"
// payload of a v2 job. Input sizes are the payload byte lengths, so the
// planned schema's capacity bound is about the very bytes that are shuffled.
type executeRequest struct {
	// Problem is "A2A" or "X2Y".
	Problem string `json:"problem"`
	// Capacity is the reducer capacity q in bytes.
	Capacity assign.Size `json:"capacity"`
	// Inputs holds the A2A payloads; XInputs/YInputs the X2Y sides.
	Inputs  []string `json:"inputs,omitempty"`
	XInputs []string `json:"x_inputs,omitempty"`
	YInputs []string `json:"y_inputs,omitempty"`
	// TimeoutMS and NoCache tune the planning step exactly as in /v1/plan.
	TimeoutMS int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
	// ReturnPairs includes the processed pair IDs in the response (capped).
	ReturnPairs bool `json:"return_pairs,omitempty"`
	// MemoryBudget, when positive, bounds the execution's in-memory shuffle
	// bytes; over-budget reduce partitions spill run files to disk
	// and merge them back at reduce time. Output is unchanged; the response
	// reports the realized spill volume.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
}

// executeResponse is the JSON answer of POST /v1/execute and the result of
// a succeeded "execute" job.
type executeResponse struct {
	Schema         *assign.MappingSchema `json:"schema"`
	Reducers       int                   `json:"reducers"`
	Winner         string                `json:"winner"`
	CacheHit       bool                  `json:"cache_hit"`
	Pairs          int64                 `json:"pairs"`
	PairIDs        []string              `json:"pair_ids,omitempty"`
	ShuffleRecords int64                 `json:"shuffle_records"`
	ShuffleBytes   int64                 `json:"shuffle_bytes"`
	MaxReducerLoad int64                 `json:"max_reducer_load"`
	// Spill figures are zero unless the request set a memory_budget the run
	// exceeded.
	SpillRuns       int64 `json:"spill_runs,omitempty"`
	SpillPartitions int64 `json:"spill_partitions,omitempty"`
	SpillBytes      int64 `json:"spill_bytes,omitempty"`
	Audited         bool  `json:"audited"`
	ElapsedMicros   int64 `json:"elapsed_us"`
}

// maxReturnedPairs caps the pair list a single response may carry.
const maxReturnedPairs = 10_000

func (s *server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, methodNotAllowed("POST"))
		return
	}
	var body executeRequest
	if aerr := s.decodeBody(w, r, &body); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxTimeout)
	defer cancel()
	resp, aerr := s.runExecute(ctx, body, s.cfg.MaxTimeout)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// validPayloads rejects what the SDK's derived input set would reject,
// without copying the payloads.
func validPayloads(field string, in []string) *apiError {
	if len(in) == 0 {
		return badRequestf("%s: no inputs", field)
	}
	for i, p := range in {
		if len(p) == 0 {
			return badRequestf("%s: input %d is empty (sizes are payload byte lengths and must be positive)", field, i)
		}
	}
	return nil
}

// validateExecute checks the wire request without materializing payload
// copies — v2 submit runs it synchronously for every job.
func (s *server) validateExecute(body executeRequest) *apiError {
	if body.Capacity <= 0 {
		return badRequestf("capacity must be positive, got %d", body.Capacity)
	}
	if n := len(body.Inputs) + len(body.XInputs) + len(body.YInputs); n > s.cfg.MaxExecInputs {
		return badRequestf("instance has %d inputs, execution limit is %d", n, s.cfg.MaxExecInputs)
	}
	switch body.Problem {
	case "A2A", "a2a":
		return validPayloads("inputs", body.Inputs)
	case "X2Y", "x2y":
		if aerr := validPayloads("x_inputs", body.XInputs); aerr != nil {
			return aerr
		}
		return validPayloads("y_inputs", body.YInputs)
	default:
		return badRequestf("problem must be A2A or X2Y, got %q", body.Problem)
	}
}

// executeOptions assembles the SDK options for a validated request, minus
// the pair logic.
func (s *server) executeOptions(body executeRequest) ([]assign.Option, *apiError) {
	if aerr := s.validateExecute(body); aerr != nil {
		return nil, aerr
	}
	toPayloads := func(in []string) [][]byte {
		data := make([][]byte, len(in))
		for i, p := range in {
			data[i] = []byte(p)
		}
		return data
	}
	opts := []assign.Option{assign.Capacity(body.Capacity), assign.Named("pland-execute")}
	switch body.Problem {
	case "A2A", "a2a":
		opts = append(opts, assign.Inputs(toPayloads(body.Inputs)))
	default:
		opts = append(opts, assign.XYInputs(toPayloads(body.XInputs), toPayloads(body.YInputs)))
	}
	if body.NoCache {
		opts = append(opts, assign.NoCache())
	}
	if body.MemoryBudget > 0 {
		opts = append(opts, assign.MemoryBudget(body.MemoryBudget))
	}
	return opts, nil
}

// runExecute is the one core both /v1/execute and "execute" jobs run.
func (s *server) runExecute(ctx context.Context, body executeRequest, maxBudget time.Duration) (*executeResponse, *apiError) {
	start := time.Now()
	opts, aerr := s.executeOptions(body)
	if aerr != nil {
		return nil, aerr
	}
	returnPairs := body.ReturnPairs
	opts = append(opts,
		assign.Timeout(requestBudget(body.TimeoutMS, s.cfg.DefaultTimeout, maxBudget)),
		assign.Pair(func(a, b assign.Record, emit func([]byte)) error {
			// The pair count comes from the executor's trace; materialize
			// the IDs only when the client asked for them.
			if returnPairs {
				emit([]byte(fmt.Sprintf("%d,%d", a.ID, b.ID)))
			}
			return nil
		}),
	)
	ex, err := s.planner.Execute(ctx, opts...)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			return nil, planError(err)
		case errors.Is(err, assign.ErrInfeasible):
			return nil, planError(err)
		default:
			// The schema was planned and validated moments ago, so an
			// execution or audit failure is a server-side defect.
			return nil, &apiError{Status: http.StatusInternalServerError, Code: codeInternal,
				Message: fmt.Sprintf("executing plan: %v", err), cause: err}
		}
	}
	resp := &executeResponse{
		Schema:          ex.Plan.Schema,
		Reducers:        ex.Plan.Schema.NumReducers(),
		Winner:          ex.Plan.Winner,
		CacheHit:        ex.Plan.CacheHit,
		Pairs:           ex.PairsProcessed,
		ShuffleRecords:  ex.ShuffleRecords,
		ShuffleBytes:    ex.ShuffleBytes,
		MaxReducerLoad:  ex.MaxReducerLoad,
		SpillRuns:       ex.SpillRuns,
		SpillPartitions: ex.SpillPartitions,
		SpillBytes:      ex.SpillBytes,
		Audited:         ex.Audited,
		ElapsedMicros:   time.Since(start).Microseconds(),
	}
	if returnPairs {
		for i, rec := range ex.Output {
			if i >= maxReturnedPairs {
				break
			}
			resp.PairIDs = append(resp.PairIDs, string(rec))
		}
	}
	return resp, nil
}

// sessionsStats is the session-manager block of GET /v1/stats.
type sessionsStats struct {
	// Live is how many v2 sessions are open right now; Limit the ceiling.
	Live  int `json:"live"`
	Limit int `json:"limit"`
}

// httpStats is the request-surface block of GET /v1/stats, a thin view over
// the same gauge /metrics exports.
type httpStats struct {
	InFlight int64 `json:"in_flight"`
}

// statsResponse is the JSON answer of GET /v1/stats. The jobs block carries
// the queue state (depth, capacity, workers, running = workers busy); the
// sessions block the session-manager state.
type statsResponse struct {
	assign.Stats
	Jobs          jobs.Stats        `json:"jobs"`
	Sessions      sessionsStats     `json:"sessions"`
	HTTP          httpStats         `json:"http"`
	Trace         obs.RecorderStats `json:"trace"`
	Cluster       *clusterStats     `json:"cluster,omitempty"`
	UptimeSeconds float64           `json:"uptime_seconds"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeAPIError(w, methodNotAllowed("GET"))
		return
	}
	s.sessMu.Lock()
	live := len(s.sessions)
	s.sessMu.Unlock()
	resp := statsResponse{
		Stats:         s.planner.Stats(),
		Jobs:          s.jobs.Stats(),
		Sessions:      sessionsStats{Live: live, Limit: s.cfg.MaxSessions},
		HTTP:          httpStats{InFlight: obsHTTPInFlight.Value()},
		Trace:         s.recorder.Stats(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if s.cluster != nil {
		resp.Cluster = s.cluster.stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Error("encoding response", "error", err)
	}
}
