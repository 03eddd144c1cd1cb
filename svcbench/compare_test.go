package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeFlags(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05, 9.95}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	lower := bound{share: 0.1, higherIsBad: true}
	higher := bound{share: 0.1, higherIsBad: false}
	for _, c := range []struct {
		name string
		b    []float64
		bd   bound
		want string
	}{
		{"latency up 30%", scale(base, 1.3), lower, "WORSE"},
		{"latency down 30%", scale(base, 0.7), lower, "better"},
		{"latency up 5%", scale(base, 1.05), lower, ""},
		{"throughput down 30%", scale(base, 0.7), higher, "WORSE"},
		{"throughput up 30%", scale(base, 1.3), higher, "better"},
		{"noisy", []float64{5, 15, 10, 6, 14, 10}, lower, "unresolved"},
	} {
		if got := judge(base, c.b, c.bd, true).flag; got != c.want {
			t.Errorf("%s: flag %q, want %q", c.name, got, c.want)
		}
	}
	if got := judge(base, scale(base, 2), lower, false).flag; got != "" {
		t.Errorf("metric without a bound flagged %q", got)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"task_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50 float64, digests ...string) string {
		var b bytes.Buffer
		for i, d := range digests {
			rec := record{Workload: "w", Stamp: stamp{Seed: int64(i)}, Digest: d,
				Metrics: map[string]float64{"task_p50_ms": p50 + float64(i)/100}}
			line, err := json.Marshal(map[string]record{"record": rec})
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteString("\n{\"correct\":true}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.txt", 10, "d0", "d1", "d2")
	same := write("b.txt", 10.2, "d0", "d1", "d2")
	slower := write("c.txt", 13, "d0", "d1", "d2")
	drifted := write("d.txt", 10, "d0", "XX", "d2")

	var out bytes.Buffer
	if bad, err := compare(&out, a, same, bench); err != nil || bad {
		t.Errorf("unchanged sets: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	if bad, err := compare(&out, a, slower, bench); err != nil || !bad || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("30%% slower set not flagged: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	if bad, err := compare(&out, a, drifted, bench); err != nil || !bad || !strings.Contains(out.String(), "DIGEST MISMATCH") {
		t.Errorf("digest drift not flagged: bad=%v err=%v\n%s", bad, err, out.String())
	}
}

func TestHistQuantileFromScrapes(t *testing.T) {
	before := parseExposition(`# TYPE x histogram
x_bucket{le="0.001"} 1
x_bucket{le="0.01"} 1
x_bucket{le="+Inf"} 1
`)
	after := parseExposition(`x_bucket{le="0.001"} 1
x_bucket{le="0.01"} 11
x_bucket{le="+Inf"} 11
x_count 11
`)
	// Ten new observations, all in (0.001, 0.01]: the median sits
	// halfway through that bucket.
	if got := histQuantile(before, after, "x", 0.5); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("histQuantile = %v, want 0.0055", got)
	}
	if got := delta(before, after, "x_count"); got != 11 {
		t.Errorf("delta of a series absent before = %v, want 11", got)
	}
	if !math.IsNaN(histQuantile(after, after, "x", 0.5)) {
		t.Error("no new observations should give NaN")
	}
}

func TestLedgerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{1, "task", "", 0, 10},
		{1, "http.submit", "task", 0, 1},
		{1, "client.watch", "task", 1, 9},
		{1, "service.run", "client.watch", 1, 7},
		{1, "http.results", "task", 9, 10},
	}
	rows, taskMs := tr.ledger()
	want := map[string]float64{"task": 0, "http.submit": 1, "client.watch": 2, "service.run": 6, "http.results": 1}
	if taskMs != 10 || len(rows) != len(want) {
		t.Fatalf("ledger = %+v, task %v", rows, taskMs)
	}
	for _, r := range rows {
		if r.SelfMs != want[r.Layer] || !near(r.Share, want[r.Layer]/10) {
			t.Errorf("%s: self %v share %v, want %v", r.Layer, r.SelfMs, r.Share, want[r.Layer])
		}
	}
}
