package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// span is one traced interval. Spans of one task share its id; parent
// names the span that caused this one ("" for the task's root).
type span struct {
	Task   int64   `json:"task"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"` // since the tracer started
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. The spans are
// recorded from outside the service: around the benchmark's calls into
// the HTTP layer, plus the server-side queue-wait and run durations the
// task's TaskView reports, placed inside the SSE wait that covers them.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return ms(x.Sub(t.t0)) }

// recordTask adds the spans of one completed task.
func (t *tracer) recordTask(sent, submitted, watched, received time.Time, queueMs, runMs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	w0, w1 := t.at(submitted), t.at(watched)
	q1 := minf(w0+queueMs, w1)
	r1 := minf(q1+runMs, w1)
	t.spans = append(t.spans,
		span{id, "task", "", t.at(sent), t.at(received)},
		span{id, "http.submit", "task", t.at(sent), w0},
		span{id, "client.watch", "task", w0, w1},
		span{id, "service.queue_wait", "client.watch", w0, q1},
		span{id, "service.run", "client.watch", q1, r1},
		span{id, "http.results", "task", w1, t.at(received)},
	)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// writeTo writes the spans as JSON lines.
func (t *tracer) writeTo(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ledgerRow is one layer's line of the ledger: its mean self time per
// task and that time's share of the mean task latency.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Note   string  `json:"note,omitempty"`
}

// ledger computes each span name's self time (its duration minus the
// part its child spans cover) averaged over tasks, and its share of
// the mean root duration, which it also returns. Rows are in first-seen
// span order.
func (t *tracer) ledger() ([]ledgerRow, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		task int64
		name string
	}
	childSum := map[key]float64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			childSum[key{s.Task, s.Parent}] += s.dur()
		}
	}
	self := map[string]float64{}
	var order []string
	var rootSum float64
	tasks := map[int64]bool{}
	for _, s := range t.spans {
		if _, seen := self[s.Name]; !seen {
			order = append(order, s.Name)
		}
		v := s.dur() - childSum[key{s.Task, s.Name}]
		if v < 0 {
			v = 0
		}
		self[s.Name] += v
		if s.Parent == "" {
			rootSum += s.dur()
			tasks[s.Task] = true
		}
	}
	if len(tasks) == 0 || rootSum <= 0 {
		return nil, 0
	}
	n := float64(len(tasks))
	rows := make([]ledgerRow, 0, len(order))
	for _, name := range order {
		rows = append(rows, ledgerRow{Layer: name, SelfMs: self[name] / n, Share: self[name] / rootSum})
	}
	return rows, rootSum / n
}

// estimatedRows places the replayed unit costs inside the traced
// spans: each unit cost times how often a mean task pays it. They are
// estimates (a replay runs outside the service, without its
// contention) and say so.
func estimatedRows(layer, extra map[string]float64, taskMs float64, workers int) []ledgerRow {
	runs, hits := extra["runs_per_task"], extra["hits_per_task"]
	misses := runs - hits
	memUs := layer[mCacheEncodedUs]
	diskShare := 1.0
	if h := layer[mHitRatio]; h > 0 {
		diskShare = 1 - layer[mLRUHitRatio]/h
	}
	rows := []ledgerRow{
		{Layer: "service.plan", SelfMs: layer[mPlanUs] / 1e3, Note: "est.: replayed Prepare, inside http.submit"},
		{Layer: "experiments.fingerprint", SelfMs: runs * layer[mFingerprintUs] / 1e3, Note: "est.: replayed x runs/task, inside service.plan"},
		{Layer: "service.cache.get", SelfMs: hits * ((1-diskShare)*memUs + diskShare*layer[mCacheGetUs]) / 1e3, Note: "est.: replayed memory/disk lookups x hits/task, inside service.run"},
		{Layer: "experiments.run", SelfMs: misses * layer[mRunMs] / float64(workers), Note: "est.: replayed Runner.Do x misses/task / shards, inside service.run"},
		{Layer: "core.step", SelfMs: misses * layer[mStepsPerRun] * layer[mStepNs] / 1e6 / float64(workers), Note: "est.: replayed Step x steps x misses/task / shards, inside experiments.run"},
	}
	for i := range rows {
		if taskMs > 0 {
			rows[i].Share = rows[i].SelfMs / taskMs
		}
	}
	return rows
}

// printLedger writes the ledger as an aligned table.
func printLedger(w io.Writer, workload string, rows []ledgerRow, taskMs, overheadMs float64) {
	fmt.Fprintf(w, "layer ledger: %s (mean task %.3f ms from send; tracing overhead %+.3f ms at p50)\n", workload, taskMs, overheadMs)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %10.4f ms  %6.1f%%  %s\n", r.Layer, r.SelfMs, 100*r.Share, r.Note)
	}
}
