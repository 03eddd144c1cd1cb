package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3.5, 1.25, 9, 2, 7, 4.5, 8}, 2, 4.5, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.99, 39.7}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestTailRule pins the ten-beyond rule: a p99 needs 1000 samples and a
// p95 200 before ten samples lie beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{199, 0.95, false}, {200, 0.95, true},
		{19, 0.5, false}, {20, 0.5, true},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
}

func TestThirds(t *testing.T) {
	first, last := thirds([]float64{1, 2, 3, 4, 5, 6, 7})
	if len(first) != 2 || first[0] != 1 || len(last) != 2 || last[1] != 7 {
		t.Errorf("thirds = %v, %v", first, last)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestClosedMetricsCreditsRunsProRata checks the closed-loop
// bookkeeping: a task straddling the deadline is credited the share of
// its runs its time before the deadline makes up, latencies are those
// of tasks that ended by the deadline, and the gated figures are in
// unstolen time with the wall-clock ones beside them.
func TestClosedMetricsCreditsRunsProRata(t *testing.T) {
	start := time.Unix(1000, 0)
	deadline := start.Add(4 * time.Second)
	task := func(sentAt, ms float64, runs int) sample {
		sent := start.Add(time.Duration(sentAt * float64(time.Second)))
		return sample{due: sent, sent: sent, e2eMs: ms, completed: runs}
	}
	ss := []sample{
		task(3.9, 500, 100), // ends after the deadline
		task(0.5, 1000, 10),
		task(2.2, 100, 4),
		task(3.0, 500, 6),
		{due: start, sent: start, e2eMs: 50, completed: 1, failed: true},
	}
	steal := stealMeter{steal: 20, idle: 50, total: 150}
	r := newResult()
	closedMetrics(r, ss, start, deadline, &steal, nil)
	// 10 + 4 + 6 runs, plus 0.2 of 100 runs (the last task's 0.1 s
	// before the deadline of its 0.5 s life), over 4 s.
	wall := (10.0 + 4 + 6 + 20) / 4
	if got := r.extra["wall.runs_per_s"]; !near(got, wall) {
		t.Errorf("wall.runs_per_s = %v, want %v", got, wall)
	}
	if got := r.e2e["runs_per_s"]; !near(got, wall/0.8) {
		t.Errorf("runs_per_s = %v, want %v", got, wall/0.8)
	}
	if got := r.extra["tasks_timed"]; got != 3 {
		t.Errorf("tasks_timed = %v, want 3", got)
	}
	if got := r.extra["wall.task_p50_ms"]; !near(got, 500) {
		t.Errorf("wall.task_p50_ms = %v, want 500", got)
	}
	if got := r.e2e["task_p50_ms"]; !near(got, 400) {
		t.Errorf("task_p50_ms = %v, want 400", got)
	}
}

// TestStealMeterAddsIntervals checks that the meter pools its
// intervals' ticks, takes the steal share of the ready (non-idle)
// ticks, and reads no steal where /proc/stat failed.
func TestStealMeterAddsIntervals(t *testing.T) {
	var m stealMeter
	for i := 0; i < 2; i++ {
		m.span()()
	}
	if s := m.share(); s < 0 || s > 1 {
		t.Errorf("steal share %v outside [0, 1]", s)
	}
	m = stealMeter{steal: 5, idle: 50, total: 100}
	if !near(m.unstolen(), 0.9) {
		t.Errorf("unstolen = %v, want 0.9", m.unstolen())
	}
	m.broken = true
	if m.unstolen() != 1 {
		t.Errorf("unreadable steal: unstolen = %v, want 1", m.unstolen())
	}
}
