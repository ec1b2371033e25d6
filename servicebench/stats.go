package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the nearest-rank q-quantile of xs, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally collects one family's client-side results. Clients share it under
// its mutex; every op takes milliseconds, so the lock is never contended
// for long.
type tally struct {
	mu        sync.Mutex
	lat       map[string][]float64 // latency in ms by op class
	ops       []float64            // latency in ms of every op, in completion order
	bytes     map[string][]float64 // body bytes by "req.<class>" / "resp.<class>"
	attempted int
	failed    int
	errs      []string
	// Counters the client tallies for cross-checks against /metrics.
	hits, spillRuns, rebuilds int64
	pairs                     int64
}

func newTally() *tally {
	return &tally{lat: map[string][]float64{}, bytes: map[string][]float64{}}
}

// record books one completed op: its latency class, body sizes and, when
// err is non-nil, the failed check.
func (t *tally) record(class string, lat time.Duration, reqBytes, respBytes int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	t.lat[class] = append(t.lat[class], ms(lat))
	if opClasses[class] {
		t.ops = append(t.ops, ms(lat))
	}
	t.bytes["req."+class] = append(t.bytes["req."+class], float64(reqBytes))
	t.bytes["resp."+class] = append(t.bytes["resp."+class], float64(respBytes))
}

// opClasses are the latency classes that count as ops; the rest (rebuild
// waits, set-up, cost-ratio completion) are recorded but are not ops.
var opClasses = map[string]bool{"plan_hit": true, "plan_miss": true, "delta": true, "session_get": true}

func (t *tally) p50(class string) float64 { return quantile(t.lat[class], 0.5) }

// costs sums schema costs and their lower bounds over a fixed set of
// instances; the ratios repeat exactly for a seed.
type costs struct{ red, lbRed, comm, lbComm float64 }

func (c *costs) add(red, lbRed int, comm, lbComm core.Size) {
	c.red += float64(red)
	c.lbRed += float64(lbRed)
	c.comm += float64(comm)
	c.lbComm += float64(lbComm)
}

func (c costs) set(m metrics) {
	m.set("reducers_over_lb", "ratio", ratio(c.red, c.lbRed))
	m.set("comm_over_lb", "ratio", ratio(c.comm, c.lbComm))
}

func (t *tally) p99(class string) float64 { return p99(t.lat[class], class) }

// p99 warns when fewer than ten samples lie beyond it, which means the run
// was too short to support it.
func p99(xs []float64, what string) float64 {
	if float64(len(xs))*0.01 < 10 {
		logf("warning: %s p99 rests on %d samples (fewer than 10 beyond it)", what, len(xs))
	}
	return quantile(xs, 0.99)
}

// closedLoop runs clients goroutines; client c calls step(c, i) for
// i = 0, 1, ... until step returns false or the deadline passes. It returns
// how many steps each client completed and the wall time until the last
// client stopped.
func closedLoop(clients int, deadline time.Time, step func(c, i int) bool) ([]int, time.Duration) {
	done := make([]int, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && step(c, i); i++ {
				done[c] = i + 1
			}
		}(c)
	}
	wg.Wait()
	return done, time.Since(start)
}

// span is one traced call: a layer entry point the benchmark called, timed
// from its own code.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for an op's root span
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Tag    string        `json:"tag,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op int64, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, tag string) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	if tag != "" {
		t.spans[id].Tag = tag
	}
	t.mu.Unlock()
}

// do wraps fn in a span.
func (t *tracer) do(name string, op int64, parent int, fn func(id int)) {
	id := t.begin(name, op, parent)
	fn(id)
	t.end(id, "")
}

// durs returns the durations (ms) of the named spans, optionally only those
// carrying tag.
func (t *tracer) durs(name, tag string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && (tag == "" || s.Tag == tag) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns each named span's self time (ms): its duration minus
// the part of it its child spans cover.
func (t *tracer) selfTimes(name string) []float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, ms(s.dur()-covered))
	}
	return out
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servicebench: "+format+"\n", args...)
}
