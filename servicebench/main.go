// Command servicebench is the end-to-end benchmark of pland. It boots the
// real pland binary on a loopback port, drives it with two closed-loop
// clients (each on its own keep-alive connection) for a fixed time, checks
// every response, and prints one JSON result line. With -trace 1 it then
// replays the same seeded ops in-process against each layer's entry points,
// with a span around every call, and prints the per-layer metrics instead.
//
// Workloads:
//
//	plan     POST /v1/plan over the portfolio-study corpus grid, half new
//	         instances (cache misses), half permutations of earlier ones
//	session  a durable pland (-data-dir in a temp dir, -fsync=interval);
//	         each client churns its own m=1000 session with PATCH batches
//	         and reads it back every 16th op
//
// The end-to-end metrics apply to every workload alike. The per-layer run
// also drives, after the timed phase and on a fresh in-memory pland, short
// fixed probes of the traffic the workload does not carry (plans, audited
// executes with and without a spill-forcing budget, session churn), so
// every layer has traffic to replay on every workload. Execute traffic has
// no timed workload of its own: on a 2-core machine its throughput moved by
// up to 30% between runs of one seed, more than any bound the gate allows.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash servicebench/run.sh --workload plan --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	clients = 2
	// probeSeed fixes the probes' inputs: they are the same reference
	// traffic on every run, whatever -seed the timed phase uses.
	probeSeed = 1
	// setups is how many times a run boots pland and preloads it; setup_s
	// is their median and the last one serves the timed phase.
	setups = 21
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	pland    string
	workdir  string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "plan or session")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	flag.StringVar(&o.pland, "pland", "", "path of the pland binary")
	flag.StringVar(&o.workdir, "workdir", "", "directory for pland's temp dirs, logs and the span file")
	flag.Parse()
	if o.workload != "plan" && o.workload != "session" {
		logf("-workload must be plan or session, got %q", o.workload)
		return 2
	}
	if o.pland == "" || o.workdir == "" || o.seconds <= 0 {
		logf("-pland, -workdir and a positive -seconds are required")
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	stopOnSignal()
	res, err := bench(o)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(res.line())
	if !res.Correct {
		for _, e := range res.errs {
			logf("check failed: %s", e)
		}
		return 1
	}
	return 0
}

// live tracks running pland processes so a signal can stop them.
var live struct {
	mu    sync.Mutex
	procs map[*plandProc]bool
}

func track(p *plandProc) {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.procs == nil {
		live.procs = map[*plandProc]bool{}
	}
	live.procs[p] = true
}

func stopTracked(p *plandProc) error {
	live.mu.Lock()
	delete(live.procs, p)
	live.mu.Unlock()
	return p.stop()
}

func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		live.mu.Lock()
		for p := range live.procs {
			p.stop()
		}
		live.mu.Unlock()
		os.Exit(130)
	}()
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	errs      []string
}

func (r *result) line() string {
	b, _ := json.Marshal(r)
	return string(b)
}

// family is the state of one kind of traffic in a run: its sequence and,
// once driven, its e2e result.
type family struct {
	plan *planSeq
	exec *execSeq
	sess *sessSeq

	planRun *planRun
	execRun *execRun
	sessRun *sessRun
}

func bench(o options) (*result, error) {
	// The build just rewrote both binaries; flush them now so set-up's WAL
	// fsyncs do not wait behind that writeback.
	syscall.Sync()
	env := environment(o)
	// Every request body is generated and encoded before pland starts.
	f := &family{}
	durable := o.workload == "session"
	if durable {
		f.sess = genSession(sessMain, o.seed, clients)
	} else {
		f.plan = genPlan(planMain, o.seed, clients)
	}
	setupT := newTally()
	var setupS []float64
	var p *plandProc
	for k := 0; k < setups; k++ {
		start := time.Now()
		var err error
		if p, err = startPland(o.pland, o.workdir, durable); err != nil {
			return nil, err
		}
		track(p)
		if durable {
			f.sess.preload(p, setupT)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if k < setups-1 {
			if err := stopTracked(p); err != nil {
				setupT.record("setup", 0, 0, 0, err)
			}
		}
	}
	defer func() {
		if p != nil {
			stopTracked(p)
		}
	}()
	logf("%s: set-up %.3fs (median of %d), timed phase %ds", o.workload, quantile(setupS, 0.5), setups, o.seconds)

	cpu0, _, err := p.procStats()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var ops int
	var wall time.Duration
	var home *tally
	if durable {
		f.sessRun = f.sess.run(p, deadline)
		ops, wall, home = f.sessRun.ops(), f.sessRun.wall, f.sessRun.t
	} else {
		f.planRun = f.plan.run(p, deadline)
		ops, wall, home = f.planRun.ops(), f.planRun.wall, f.planRun.t
	}
	cpu1, hwmKB, err := p.procStats()
	if err != nil {
		return nil, err
	}

	logf("%s: %d ops in %.3fs", o.workload, ops, wall.Seconds())
	mainScrape, err := p.scrape()
	if err != nil {
		return nil, err
	}
	res := &result{}
	res.errs = append(res.errs, crossCheck(mainScrape, home)...)
	if err := stopTracked(p); err != nil {
		res.errs = append(res.errs, err.Error())
	}

	p = nil
	env["counters"] = counters(mainScrape)
	m := metrics{}
	probeT := newTally()
	if o.trace == 0 {
		m.set("setup_s", "s", quantile(setupS, 0.5))
		m.set("ops_per_s", "ops/s", float64(ops)/wall.Seconds())
		m.set("mean_ms", "ms", mean(home.ops))
		m.set("p99_ms", "ms", p99(home.ops, o.workload))
		m.set("peak_rss_mb", "MiB", float64(hwmKB)/1024)
		if durable {
			f.sess.costs().set(m)
		} else {
			f.planRun.costs().set(m)
		}
	} else {
		scrapes, err := runProbes(o, f, probeT, &res.errs)
		if err != nil {
			return nil, err
		}
		scrapes[o.workload] = mainScrape
		env["counters_probe"] = counters(scrapes["probe"])
		traceStart := time.Now()
		tr := newTracer()
		tdeadline := time.Now().Add(time.Duration(2*o.seconds) * time.Second)
		f.planRun.trace(tr, tdeadline, m)
		if err := f.execRun.trace(tr, tdeadline, o.workdir, m); err != nil {
			res.errs = append(res.errs, err.Error())
		}
		if err := f.sessRun.trace(tr, tdeadline, o.workdir, m); err != nil {
			res.errs = append(res.errs, err.Error())
		}
		f.planRun.classes(m)
		f.execRun.classes(m)
		f.sessRun.classes(m)
		m.set("pland.cpu_ms_per_op", "ms", ratio(ms(cpu1-cpu0), float64(ops)))
		ps, ss := scrapes["plan"], scrapes["session"]
		m.set("planner.evictions", "count", ps.sum("pland_planner_cache_evictions_total"))
		m.set("wal.fsyncs", "count", ss.sum("pland_wal_fsyncs_total"))
		m.set("wal.kb_per_delta", "KiB", ratio(ss.sum("pland_wal_appended_bytes_total")/1024, float64(f.sess.cfg.batch*len(f.sessRun.t.lat["delta"]))))
		m.set("jobs.wait_ms", "ms", 1000*ratio(ss.sum("pland_jobs_wait_seconds_sum"), ss.sum("pland_jobs_wait_seconds_count")))
		spans := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := tr.write(spans); err != nil {
			return nil, err
		}
		logf("traced replay took %.3fs; wrote %d spans to %s", time.Since(traceStart).Seconds(), len(tr.spans), spans)
		printLayers(m)
	}
	for _, t := range []*tally{setupT, probeT, home} {
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.errs = append(res.errs, t.errs...)
	}
	envLine, _ := json.Marshal(env)
	fmt.Println("environment: " + string(envLine))
	for _, pattern := range []string{"pland-*", "trace-*"} {
		left, _ := filepath.Glob(filepath.Join(o.workdir, pattern))
		for _, l := range left {
			res.errs = append(res.errs, "left behind: "+l)
		}
	}
	res.Metrics = m
	res.Correct = res.Failed == 0 && len(res.errs) == 0
	return res, nil
}

// runProbes drives, on a fresh in-memory pland, short op-bounded probes of
// the kinds of traffic the workload does not carry, so the traced run has
// every layer's traffic to replay. It returns the scrape that serves each
// kind's counters.
func runProbes(o options, f *family, probeT *tally, errs *[]string) (map[string]promScrape, error) {
	p, err := startPland(o.pland, o.workdir, false)
	if err != nil {
		return nil, err
	}
	track(p)
	defer func() {
		if err := stopTracked(p); err != nil {
			*errs = append(*errs, err.Error())
		}
	}()
	far := time.Now().Add(time.Hour)
	var probes []*tally
	if f.planRun == nil {
		f.plan = genPlan(planProbe, probeSeed, clients)
		f.planRun = f.plan.run(p, far)
		probes = append(probes, f.planRun.t)
	}
	f.exec = genExec(probeSeed, clients)
	f.exec.preload(p, probeT)
	f.execRun = f.exec.run(p, far)
	probes = append(probes, f.execRun.t)
	if f.sessRun == nil {
		f.sess = genSession(sessProbe, probeSeed, clients)
		f.sess.preload(p, probeT)
		f.sessRun = f.sess.run(p, far)
		probes = append(probes, f.sessRun.t)
	}
	s, err := p.scrape()
	if err != nil {
		return nil, err
	}
	*errs = append(*errs, crossCheck(s, probes...)...)
	for _, t := range probes {
		probeT.attempted += t.attempted
		probeT.failed += t.failed
		probeT.errs = append(probeT.errs, t.errs...)
	}
	return map[string]promScrape{"plan": s, "session": s, "probe": s}, nil
}

// crossCheck compares a pland's own counters with what the clients that
// drove it tallied from its responses.
func crossCheck(s promScrape, ts ...*tally) []string {
	var hits, spills, rebuilds int64
	for _, t := range ts {
		hits += t.hits
		spills += t.spillRuns
		rebuilds += t.rebuilds
	}
	var errs []string
	for _, c := range []struct {
		name   string
		got    float64
		client int64
	}{
		{`pland_planner_requests_total{outcome="hit"}`, s[`pland_planner_requests_total{outcome="hit"}`], hits},
		{"pland_exec_spill_runs_total", s.sum("pland_exec_spill_runs_total"), spills},
		{"pland_stream_rebuilds_total", s.sum("pland_stream_rebuilds_total"), rebuilds},
	} {
		if int64(c.got) != c.client {
			errs = append(errs, fmt.Sprintf("%s = %v, client saw %d", c.name, c.got, c.client))
		}
	}
	return errs
}

// counters picks the program counters a result is recorded with.
func counters(s promScrape) map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{
		"pland_planner_cache_evictions_total", "pland_planner_solver_wins_total", "pland_exec_spill_runs_total",
		"pland_wal_appended_records_total", "pland_wal_appended_bytes_total", "pland_wal_fsyncs_total",
		"pland_stream_rebuilds_total", "pland_jobs_wait_seconds_sum", "pland_jobs_wait_seconds_count",
	} {
		out[name] = s.sum(name)
	}
	return out
}

// printLayers writes the per-layer table to stderr, each overhead beside
// the e2e p50 it is taken from.
func printLayers(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	w := bufio.NewWriter(os.Stderr)
	defer w.Flush()
	fmt.Fprintf(w, "%-36s %14s  %s\n", "per-layer metric", "value", "unit")
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.4f  %s", n, m[n].Value, m[n].Unit)
		if op, ok := strings.CutPrefix(n, "pland.overhead_ms."); ok {
			e := m["pland."+op+"_p50_ms"].Value
			fmt.Fprintf(w, "   e2e p50 %.4f ms, traced p50 %.4f ms", e, e-m[n].Value)
		}
		fmt.Fprintln(w)
	}
}

// environment records what a result must be read with.
func environment(o options) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fsync := "none (in-memory pland)"
	if o.workload == "session" {
		fsync = fsyncPolicy
	}
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "fsync": fsync, "clients": clients,
	}
}
