package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"adasim/internal/experiments"
)

// JobKind registers campaign jobs with the task runtime: the full cross
// product scenarios x gaps x reps of closed-loop runs under one fault
// parameterisation and one intervention set (see JobSpec).
var JobKind = RegisterKind(&TaskKind{
	Name:     "job",
	Plural:   "jobs",
	Prefix:   "j",
	Class:    RetentionStandard,
	Priority: PriorityInteractive,
	Decode: func(b []byte) (TaskSpec, error) {
		spec, err := DecodeSpec(b)
		if err != nil {
			return nil, err
		}
		return spec, nil
	},
	Encode: func(spec TaskSpec) ([]byte, error) {
		s, ok := spec.(JobSpec)
		if !ok {
			return nil, fmt.Errorf("service: job encode: unexpected spec type %T", spec)
		}
		return json.Marshal(s)
	},
	Wire: func(hash string, result any) any {
		runs := result.([]experiments.RunOutcome)
		return ResultsResponse{
			SpecHash:  hash,
			TotalRuns: len(runs),
			Results:   runs,
			Aggregate: AggregateFor(runs),
		}
	},
})

// Prepare implements TaskSpec: normalize, validate, hash, and expand the
// campaign into its planned runs.
func (s JobSpec) Prepare() (PreparedTask, error) {
	norm := s.Normalized()
	if err := norm.Validate(); err != nil {
		return PreparedTask{}, err
	}
	hash, err := norm.Hash()
	if err != nil {
		return PreparedTask{}, err
	}
	plan, err := norm.Plan()
	if err != nil {
		return PreparedTask{}, err
	}
	return PreparedTask{
		Hash:  hash,
		Total: len(plan),
		Run: func(env TaskEnv) (any, TaskStats, error) {
			outs, stats, err := executePlan(plan, env)
			if err != nil {
				return nil, stats, err
			}
			return outs, stats, nil
		},
	}, nil
}

// executePlan resolves a job's planned runs: cached runs short-circuit,
// the rest fan out over the executor, and fresh outcomes are written
// back to the cache. Results land in slots indexed by the canonical
// plan order, so job output is independent of shard count and cache
// warmth.
func executePlan(plan []PlannedRun, env TaskEnv) ([]experiments.RunOutcome, TaskStats, error) {
	outs := make([]experiments.RunOutcome, len(plan))
	var stats TaskStats
	// The working slices (miss list, request batch) recycle through a
	// pool: outs escapes as the result, and the executors only read reqs
	// before their Execute returns, so neither reference outlives this
	// call. The completion flags are deliberately NOT pooled — see below.
	sc := planScratchPool.Get().(*planScratch)
	defer sc.release()
	missed, reqs := sc.missed, sc.reqs
	for i, pr := range plan {
		if env.Cache != nil {
			if out, ok := env.Cache.Get(pr.CacheKey); ok {
				outs[i] = experiments.RunOutcome{Key: pr.Key, Outcome: out}
				stats.Completed++
				stats.CacheHits++
				continue
			}
		}
		missed = append(missed, i)
		reqs = append(reqs, experiments.RunRequest{Key: pr.Key, Opts: pr.Opts})
	}
	sc.missed, sc.reqs = missed, reqs
	progress := func() {
		if env.Progress != nil {
			env.Progress(stats.Completed, stats.CacheHits)
		}
	}
	progress()

	// succeeded[j] records per-run completion: the worker invokes onDone
	// only for runs that finished without error. The slice is a per-call
	// allocation, never pooled: when Execute fails (a cancellation tick,
	// a batch exhausting its lease attempts), the worker hub can deliver
	// a completion that was already in flight and invoke onDone after
	// Execute has returned. The flags are atomic and the slice is
	// reachable only from this call, so such a late store is harmless —
	// a pooled slice could have been recycled into another job by then,
	// and the stray store would mark one of its never-run requests as
	// succeeded and Put a zero-value outcome under a real content hash.
	// A flag observed true always guards a valid outcome: the hub writes
	// the result slot under its lock before invoking onDone.
	var succeeded []atomic.Bool
	if len(reqs) > 0 {
		succeeded = make([]atomic.Bool, len(reqs))
	}
	base, hits := int64(stats.Completed), stats.CacheHits
	var ran int64
	onDone := func(j int, _ experiments.RunOutcome) {
		succeeded[j].Store(true)
		if env.Progress != nil {
			// Per-run progress inside the batch: cache hits are all
			// counted above, so only the completed count moves.
			env.Progress(int(base+atomic.AddInt64(&ran, 1)), hits)
		}
	}
	fresh, err := env.Exec.Execute(reqs, onDone)
	if err != nil {
		// The batch failed (or was canceled), but the runs that did
		// complete are valid content-addressed outcomes: cache them so
		// a corrected resubmission or an overlapping job re-runs only
		// what actually failed.
		if env.Cache != nil && len(fresh) == len(reqs) {
			for j, i := range missed {
				if succeeded[j].Load() {
					env.Cache.Put(plan[i].CacheKey, fresh[j].Outcome)
				}
			}
		}
		return nil, stats, err
	}
	for j, i := range missed {
		outs[i] = fresh[j]
		stats.Completed++
		if env.Cache != nil {
			env.Cache.Put(plan[i].CacheKey, fresh[j].Outcome)
		}
	}
	progress()
	return outs, stats, nil
}

// planScratch holds executePlan's per-call working slices so warm jobs
// (mostly or fully cache-served) do not re-grow them per task. The
// completion flags live outside it on purpose: a failed Execute can see
// one last onDone after it returns, so the flags must stay reachable
// only from their own call (see executePlan).
type planScratch struct {
	missed []int
	reqs   []experiments.RunRequest
}

var planScratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// release clears the request batch (core.Options holds pointers the GC
// should not see pinned by a pooled slice) and returns the scratch.
func (sc *planScratch) release() {
	sc.missed = sc.missed[:0]
	for j := range sc.reqs {
		sc.reqs[j] = experiments.RunRequest{}
	}
	sc.reqs = sc.reqs[:0]
	planScratchPool.Put(sc)
}
