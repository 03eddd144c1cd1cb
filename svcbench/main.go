// Command svcbench is the end-to-end benchmark of the adasimd campaign
// service. It boots the real service.Dispatcher behind
// service.NewServer on a loopback listener, wired as cmd/adasimd wires
// them, drives it through internal/client from this one process (with
// no more concurrent senders than there are CPUs), checks the bytes of
// every result, and prints the measured metrics.
//
// Usage, from the repository root (svcbench/run.sh builds the binary
// first and passes its arguments on):
//
//	bash svcbench/run.sh --workload cold-campaign --seed 1 --seconds 25 --trace 0
//	bash svcbench/run.sh compare before.txt after.txt
//
// A run prints two lines on standard output: a full record
// ({"record": ...}, stamped with commit, Go version, CPUs and seed)
// and, last, the result
// ({"correct", "attempted", "failed", "metrics"}) with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). A traced run
// also prints its layer ledger on standard error. compare reads two
// files of such output and prints, per workload and metric, both sides'
// medians and quartiles, flagging moves beyond the bounds in
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEndNames are the end-to-end metrics every untraced run reports.
var endToEndNames = []string{"setup_s", "runs_per_s", "task_p50_ms", "task_p90_ms", "peak_rss_mb"}

var units = map[string]string{
	"setup_s": "s", "runs_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms", "peak_rss_mb": "MiB",
	"wall.setup_s": "s", "wall.runs_per_s": "1/s", "wall.task_p50_ms": "ms", "wall.task_p90_ms": "ms", "wall.task_p95_ms": "ms",
	mStepNs: "ns", mStepsPerRun: "count", mRunMs: "ms", mFingerprintUs: "us", mPlanUs: "us",
	mQueueP50: "ms", mQueueP99: "ms", mRunP50: "ms", mOutsideRunP50: "ms",
	mHitRatio: "ratio", mLRUHitRatio: "ratio", mDiskReads: "count",
	mCacheGetUs: "us", mCacheEncodedUs: "us", mCachePutUs: "us", mCacheOpenMs: "ms",
	mJournalAppends: "count", mJournalP50: "ms", mSubmitP50: "ms", mResultsP50: "ms", mResultsBytes: "bytes",
	mReportRuns: "count", mExploreProbes: "count", mExploreTaskMs: "ms",
	mRemoteBatchP50: "ms", mRemoteRuns: "count", mRemoteRequeued: "count",
	mGenSent: "count", mGenLateP99: "ms", mTraceOverhead: "ms",
}

// runDeadline bounds a whole run of the given timed seconds: a fixed
// allowance for set-up, checks and replays plus twice the timed phase.
// Past it the process exits non-zero rather than hang.
func runDeadline(seconds int) time.Duration {
	return 90*time.Second + 2*time.Duration(seconds)*time.Second
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: svcbench compare <before> <after>")
			os.Exit(2)
		}
		worse, err := compare(os.Stdout, os.Args[2], os.Args[3], "BENCHMARK.json")
		if err != nil {
			fmt.Fprintln(os.Stderr, "svcbench:", err)
			os.Exit(1)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
}

// record is the full account of one run.
type record struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Extra     map[string]float64 `json:"extra"`
	Absent    map[string]string  `json:"absent,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Digest    string             `json:"cold_digest,omitempty"`
	Ledger    []ledgerRow        `json:"ledger,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line, printed last.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 25, "seconds of timed load")
		trace   = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	deadline := runDeadline(*seconds)
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "svcbench: run exceeded %s\n", deadline)
		os.Exit(3)
	})
	defer timer.Stop()

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "svcbench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: float64(*seconds), dir: dir}
	if *trace == 1 {
		e.tr = newTracer()
	}
	st := newStamp(*seed, w.name)
	fmt.Fprintf(os.Stderr, "svcbench: %s seed %d, %ds, trace %d\n", w.name, *seed, *seconds, *trace)
	t0 := time.Now()
	var steal stealMeter
	endSteal := steal.span()
	res, err := w.run(e)
	if err != nil {
		return err
	}
	// Time the hypervisor gave this machine's CPUs to others over the
	// whole run (steal.go).
	endSteal()
	res.extra["host_steal_share"] = steal.share()
	transport.CloseIdleConnections()
	if res.attempted > 0 {
		res.extra["failed_frac"] = float64(res.failed) / float64(res.attempted)
	}
	rec := record{
		Stamp: st, Workload: w.name, Trace: e.tr != nil,
		Correct:   len(res.problems) == 0 && res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted, Failed: res.failed,
		Metrics: res.e2e, Extra: res.extra, Absent: res.absent, Problems: res.problems, Notes: res.notes, Digest: res.coldDigest,
	}
	names := endToEndNames
	if e.tr != nil {
		names = perLayerNames
		for k, v := range res.layer {
			rec.Metrics[k] = v
		}
		rows, taskMs := e.tr.ledger()
		rec.Ledger = append(rows, estimatedRows(res.layer, res.extra, taskMs, runtime.NumCPU())...)
		printLedger(os.Stderr, w.name, rec.Ledger, taskMs, res.layer[mTraceOverhead])
		if err := writeSpans(e.tr, w.name, *seed); err != nil {
			return err
		}
	}
	// A figure with no samples behind it is NaN, which JSON cannot
	// carry: it is dropped, and a missing reported metric makes the run
	// incorrect.
	dropNonFinite(rec.Metrics)
	dropNonFinite(rec.Extra)
	ledger := rec.Ledger[:0]
	for _, row := range rec.Ledger {
		if !math.IsNaN(row.SelfMs+row.Share) && !math.IsInf(row.SelfMs+row.Share, 0) {
			ledger = append(ledger, row)
		}
	}
	rec.Ledger = ledger
	out := output{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for _, n := range names {
		v, ok := rec.Metrics[n]
		if !ok {
			out.Correct = false
			rec.Problems = append(rec.Problems, fmt.Sprintf("metric %s not measured", n))
		}
		out.Metrics[n] = metricValue{Value: v, Unit: units[n]}
	}
	rec.Correct = out.Correct
	summarise(os.Stderr, rec, time.Since(t0))
	recLine, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	outLine, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", recLine, outLine)
	return nil
}

func dropNonFinite(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
}

// writeSpans writes a traced run's spans as JSON lines under
// .bench_build/spans.
func writeSpans(tr *tracer, workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	if err := tr.writeTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarise prints a run's figures for a human reader.
func summarise(w io.Writer, rec record, took time.Duration) {
	fmt.Fprintf(w, "svcbench: %s correct=%v attempted=%d failed=%d in %.1fs\n", rec.Workload, rec.Correct, rec.Attempted, rec.Failed, took.Seconds())
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	show := func(title string, m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  %s:\n", title)
		for _, k := range keys {
			fmt.Fprintf(w, "    %-34s %14.4f %s\n", k, m[k], units[k])
		}
	}
	show("metrics", rec.Metrics)
	show("extra", rec.Extra)
	for k, why := range rec.Absent {
		fmt.Fprintf(w, "  n/a %s: %s\n", k, why)
	}
	if rec.Digest != "" {
		fmt.Fprintf(w, "  cold digest %s\n", rec.Digest)
	}
}
