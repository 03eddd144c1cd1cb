package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"time"

	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/service"
)

// Per-layer metric names, in the order BENCHMARK.json lists them.
const (
	mStepNs         = "core.step_ns"
	mStepsPerRun    = "core.steps_per_run"
	mRunMs          = "experiments.run_ms"
	mFingerprintUs  = "experiments.fingerprint_us"
	mPlanUs         = "service.plan_us"
	mQueueP50       = "service.queue_wait_p50_ms"
	mQueueP99       = "service.queue_wait_p99_ms"
	mRunP50         = "service.run_p50_ms"
	mOutsideRunP50  = "service.outside_run_p50_ms"
	mHitRatio       = "service.cache.hit_ratio"
	mLRUHitRatio    = "service.cache.lru_hit_ratio"
	mDiskReads      = "service.cache.disk_reads"
	mCacheGetUs     = "service.cache.get_us"
	mCacheEncodedUs = "service.cache.encoded_us"
	mCachePutUs     = "service.cache.put_us"
	mCacheOpenMs    = "service.cache.open_ms"
	mJournalAppends = "service.journal.appends"
	mJournalP50     = "service.journal.append_p50_ms"
	mSubmitP50      = "http.submit_p50_ms"
	mResultsP50     = "http.results_p50_ms"
	mResultsBytes   = "http.results_bytes"
	mReportRuns     = "report.runs_per_task"
	mExploreProbes  = "explore.probes_per_task"
	mExploreTaskMs  = "explore.task_ms"
	mRemoteBatchP50 = "remote.batch_p50_ms"
	mRemoteRuns     = "remote.runs"
	mRemoteRequeued = "remote.requeued"
	mGenSent        = "gen.sent"
	mGenLateP99     = "gen.late_p99_ms"
	mTraceOverhead  = "trace.overhead_ms"
)

// perLayerNames lists every per-layer metric a traced run reports.
var perLayerNames = []string{
	mStepNs, mStepsPerRun, mRunMs, mFingerprintUs, mPlanUs,
	mQueueP50, mQueueP99, mRunP50, mOutsideRunP50,
	mHitRatio, mLRUHitRatio, mDiskReads, mCacheGetUs, mCacheEncodedUs, mCachePutUs, mCacheOpenMs,
	mJournalAppends, mJournalP50, mSubmitP50, mResultsP50, mResultsBytes,
	mReportRuns, mExploreProbes, mExploreTaskMs,
	mRemoteBatchP50, mRemoteRuns, mRemoteRequeued, mGenSent, mGenLateP99, mTraceOverhead,
}

// taskLayers records the layer metrics read off the tasks' own spans
// and TaskViews: HTTP submit and results, queue wait, run, and the rest
// of the task outside queueing and execution.
func taskLayers(r *result, ss []sample) {
	var submit, results, bytes, queue, run, outside, runs, hits []float64
	for i := range ss {
		s := &ss[i]
		if s.failed {
			continue
		}
		runs = append(runs, float64(s.completed))
		hits = append(hits, float64(s.cacheHits))
		submit = append(submit, s.submitMs)
		results = append(results, s.resultsMs)
		bytes = append(bytes, float64(s.bytes))
		queue = append(queue, s.queueMs)
		run = append(run, s.runMs)
		outside = append(outside, s.outsideRunMs())
	}
	r.layer[mSubmitP50] = median(submit)
	r.layer[mResultsP50] = median(results)
	r.layer[mResultsBytes] = mean(bytes)
	r.layer[mQueueP50] = median(queue)
	r.layer[mQueueP99] = percentile(queue, 0.99)
	r.layer[mRunP50] = median(run)
	r.layer[mOutsideRunP50] = median(outside)
	r.extra["runs_per_task"] = mean(runs)
	r.extra["hits_per_task"] = mean(hits)
}

// tracingOverhead is the p50 latency of the traced tasks minus that of
// the untraced ones; traced runs trace half of the tasks.
func tracingOverhead(ss []sample) float64 {
	var on, off []float64
	for i := range ss {
		if ss[i].failed {
			continue
		}
		if ss[i].traced {
			on = append(on, ss[i].sendMs())
		} else {
			off = append(off, ss[i].sendMs())
		}
	}
	return median(on) - median(off)
}

// serverLayers records the layer metrics read from the daemon's public
// /metrics and /healthz across the timed phase.
func serverLayers(r *result, m0, m1 exposition, h0, h1 service.HealthResponse) {
	hits := float64(h1.Cache.Hits - h0.Cache.Hits)
	misses := float64(h1.Cache.Misses - h0.Cache.Misses)
	disk := float64(h1.Cache.DiskHits - h0.Cache.DiskHits)
	if hits+misses > 0 {
		r.layer[mHitRatio] = hits / (hits + misses)
		r.layer[mLRUHitRatio] = (hits - disk) / (hits + misses)
	}
	r.layer[mDiskReads] = disk
	r.layer[mJournalAppends] = delta(m0, m1, "adasim_journal_appends_total")
	r.layer[mJournalP50] = 1e3 * histQuantile(m0, m1, "adasim_journal_append_seconds", 0.5)
	r.layer[mRemoteRuns] = delta(m0, m1, "adasim_remote_runs_total")
	r.layer[mRemoteRequeued] = delta(m0, m1, "adasim_batches_requeued_total")
	r.layer[mRemoteBatchP50] = 1e3 * histQuantile(m0, m1, "adasim_remote_batch_seconds", 0.5)
}

// replayInputs is a seeded sample of what a workload ran, replayed
// through each layer's public functions after the timed phase.
type replayInputs struct {
	runs     []core.Options     // planned runs
	specs    []service.TaskSpec // submitted specs, for Prepare
	keys     []string           // result-cache keys the workload stored
	cacheDir string             // the workload's segment store
}

// sampleOf picks up to n elements of xs with rng, without replacement.
func sampleOf[T any](rng *rand.Rand, xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, 0, n)
	for _, i := range rng.Perm(len(xs))[:n] {
		out = append(out, xs[i])
	}
	return out
}

// replayLayers times each layer's public entry points on the sample:
// Platform.Step, Runner.Do, RunFingerprint, TaskSpec.Prepare, and the
// ResultCache open/Get/Encoded/Put on the workload's own store (which
// must be closed by then).
func replayLayers(r *result, in replayInputs) error {
	if len(in.runs) > 0 {
		var steps int
		var stepTime time.Duration
		for _, o := range in.runs {
			p, err := core.NewPlatform(o)
			if err != nil {
				return err
			}
			t0 := time.Now()
			n := 0
			for n < o.Steps && !p.Finished() {
				p.Step()
				n++
			}
			stepTime += time.Since(t0)
			steps += n
		}
		r.layer[mStepNs] = float64(stepTime.Nanoseconds()) / float64(steps)
		r.layer[mStepsPerRun] = float64(steps) / float64(len(in.runs))

		var runner experiments.Runner
		if _, err := runner.Do(in.runs[0]); err != nil { // builds the platform
			return err
		}
		var runMs, fpUs []float64
		for _, o := range in.runs {
			t0 := time.Now()
			if _, err := runner.Do(o); err != nil {
				return err
			}
			runMs = append(runMs, ms(time.Since(t0)))
			const reps = 50
			t0 = time.Now()
			for i := 0; i < reps; i++ {
				if _, err := experiments.RunFingerprint(o); err != nil {
					return err
				}
			}
			fpUs = append(fpUs, 1e3*ms(time.Since(t0))/reps)
		}
		r.layer[mRunMs] = median(runMs)
		r.layer[mFingerprintUs] = median(fpUs)
	}

	var planUs []float64
	for _, sp := range in.specs {
		const reps = 20
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := sp.Prepare(); err != nil {
				return err
			}
		}
		planUs = append(planUs, 1e3*ms(time.Since(t0))/reps)
	}
	r.layer[mPlanUs] = median(planUs)

	t0 := time.Now()
	rc, err := service.NewResultCache(4096, in.cacheDir)
	if err != nil {
		return err
	}
	defer rc.Close()
	r.layer[mCacheOpenMs] = ms(time.Since(t0))
	var getUs, encUs []float64
	var outcomes []experiments.RunOutcome
	for _, k := range in.keys {
		t0 := time.Now()
		out, ok := rc.Get(k)
		getUs = append(getUs, 1e3*ms(time.Since(t0)))
		if !ok {
			r.problem("replay: stored key %s… missing from the cache", k[:12])
			continue
		}
		outcomes = append(outcomes, experiments.RunOutcome{Outcome: out})
	}
	for _, k := range in.keys {
		t0 := time.Now()
		rc.Encoded(k)
		encUs = append(encUs, 1e3*ms(time.Since(t0)))
	}
	r.layer[mCacheGetUs] = mean(getUs)
	r.layer[mCacheEncodedUs] = mean(encUs)
	var putUs []float64
	for i, o := range outcomes {
		sum := sha256.Sum256([]byte{byte(i), byte(i >> 8), 'p', 'u', 't'})
		key := hex.EncodeToString(sum[:])
		t0 := time.Now()
		rc.Put(key, o.Outcome)
		putUs = append(putUs, 1e3*ms(time.Since(t0)))
	}
	r.layer[mCachePutUs] = mean(putUs)
	return nil
}
