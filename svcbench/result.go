package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"

	"adasim/internal/experiments"
	"adasim/internal/explore"
	"adasim/internal/report"
	"adasim/internal/service"
)

// result is what one workload run measured.
type result struct {
	e2e    map[string]float64 // the end-to-end metrics BENCHMARK.json lists
	layer  map[string]float64 // per-layer metrics (traced runs)
	extra  map[string]float64 // further figures: per-rate latencies, guards
	absent map[string]string  // per-layer metrics that do not apply, and why

	attempted, failed int
	problems          []string // oracle mismatches and failures (first few)
	notes             []string // measurement warnings that leave outputs correct
	coldDigest        string
}

func newResult() *result {
	return &result{
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		extra:  map[string]float64{},
		absent: map[string]string{},
	}
}

// maxProblems caps how many problems a record lists.
const maxProblems = 8

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// steadyGuard notes a phase whose median latency moved by more than
// steadyDrift between its first and last third.
func (r *result) steadyGuard(phase string, first, last float64) {
	if d := (last - first) / first; d > steadyDrift || d < -steadyDrift {
		r.note("%s: p50 moved %+.0f%% from the first to the last third of the phase", phase, 100*d)
	}
}

// steadyDrift is the largest first-to-last-third move of a phase's p50
// that still counts as steady: the loosest bound in BENCHMARK.json.
const steadyDrift = 0.25

// count adds timed samples to the attempted and failed totals.
func (r *result) count(ss []sample) {
	for i := range ss {
		r.attempted++
		if ss[i].failed {
			r.failed++
			r.problem("%s", ss[i].problem)
		}
	}
}

// notApplicable records a per-layer metric the workload does not
// exercise: it reads 0 and the record says why.
func (r *result) notApplicable(why string, names ...string) {
	for _, n := range names {
		r.layer[n] = 0
		r.absent[n] = why
	}
}

// resetPeakRSS returns the memory set-up left unreferenced to the OS
// and restarts the process's peak resident set size from what remains,
// so that peakRSSMB covers the timed phase that follows and not the
// set-up before it. Where the peak cannot be reset, the run notes it.
func resetPeakRSS(r *result) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		r.note("peak RSS not reset before timing, so it covers set-up too: %v", err)
	}
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB
// since the last resetPeakRSS; NaN where it cannot be read.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kib / 1024
		}
	}
	return math.NaN()
}

// freshSeed derives a distinct base seed for task i of stream k of the
// workload seeded with seed (splitmix64 over the three).
func freshSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 2)
}

// digestOf combines per-task digests in order into one short hex id.
func digestOf(ds [][32]byte) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(ds)))
	h.Write(n[:])
	for _, d := range ds {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// jobRequests expands a normalized job spec into run requests in plan
// order.
func jobRequests(spec service.JobSpec) (hash string, reqs []experiments.RunRequest, keys []string, err error) {
	norm := spec.Normalized()
	if hash, err = norm.Hash(); err != nil {
		return "", nil, nil, err
	}
	plan, err := norm.Plan()
	if err != nil {
		return "", nil, nil, err
	}
	for _, p := range plan {
		reqs = append(reqs, experiments.RunRequest{Key: p.Key, Opts: p.Opts})
		keys = append(keys, p.CacheKey)
	}
	return hash, reqs, keys, nil
}

// expectedJobBytes computes a job's results response offline, on an
// in-process pool with no cache, the way the results route encodes it.
// The service must serve exactly these bytes.
func expectedJobBytes(pool *experiments.Pool, spec service.JobSpec) ([]byte, error) {
	hash, reqs, _, err := jobRequests(spec)
	if err != nil {
		return nil, err
	}
	outs, err := pool.Execute(reqs, nil)
	if err != nil {
		return nil, err
	}
	return wireBytes(service.ResultsResponse{
		SpecHash:  hash,
		TotalRuns: len(outs),
		Results:   outs,
		Aggregate: service.AggregateFor(outs),
	})
}

// expectedReportBytes computes a report offline.
func expectedReportBytes(pool *experiments.Pool, spec report.Spec) ([]byte, error) {
	res, _, err := report.New(pool, nil).Run(spec.Normalized())
	if err != nil {
		return nil, err
	}
	return wireBytes(res)
}

// expectedExploreBytes computes an exploration offline.
func expectedExploreBytes(pool *experiments.Pool, spec explore.Spec) ([]byte, error) {
	rep, _, err := explore.New(pool, nil).Run(spec.Normalized())
	if err != nil {
		return nil, err
	}
	return wireBytes(rep)
}

// wireBytes is the server's JSON response encoding: compact, one
// trailing newline.
func wireBytes(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkAgainst compares a served task's digest with bytes computed
// offline and fails the sample on a mismatch.
func checkAgainst(r *result, s *sample, want []byte, err error) {
	if s.failed {
		return
	}
	if err != nil {
		r.problem("offline recompute for %s: %v", s.class, err)
		s.failed, s.problem = true, "offline recompute failed"
		return
	}
	if sha256.Sum256(want) != s.digest {
		s.failed = true
		s.problem = fmt.Sprintf("%s task served %d bytes that differ from the %d computed offline", s.class, s.bytes, len(want))
	}
}
