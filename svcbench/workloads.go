package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"adasim/internal/client"
	"adasim/internal/core"
	"adasim/internal/experiments"
	"adasim/internal/explore"
	"adasim/internal/report"
	"adasim/internal/scenario"
	"adasim/internal/service"
	"adasim/internal/worker"
)

// env is one benchmark run's settings and scratch space.
type env struct {
	seed    int64
	seconds float64
	dir     string  // scratch directory, removed after the run
	tr      *tracer // non-nil in traced runs
	probes  int     // boot probes submitted so far
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// tracerFor is the tracer for the i-th task of a stream: a traced run
// traces a pseudo-random half of the tasks, so the untraced half
// measures the tracing overhead under the same load. The choice is a
// hash of i, not its parity, because workloads cycle task types by
// index.
func (e *env) tracerFor(i int) *tracer {
	if e.tr != nil && freshSeed(0, streamTrace, i)&1 == 0 {
		return e.tr
	}
	return nil
}

// probe returns the boot probe: a fresh one-run job per boot, so no
// boot's probe is a cache hit for another.
func (e *env) probe(steps int) func(c *client.Client) (string, error) {
	return func(c *client.Client) (string, error) {
		e.probes++
		v, err := c.SubmitTask("jobs", soleJob(e.probes, freshSeed(e.seed, streamProbe, e.probes), steps), "")
		return v.ID, err
	}
}

// Seed streams: each input family draws its seeds from its own stream.
const (
	streamProbe = 100 + iota
	streamWarm12
	streamWarm1
	streamFill
	streamCapacity
	streamRate
	streamBulk
	streamInteractive
	streamExplore
	streamReplay
	streamTrace
)

// boots is how many times set-up boots the daemon; setup_s is the
// median.
const boots = 31

// maxJobRecords is the dispatcher's default retention cap for jobs.
const maxJobRecords = 4096

// rssReports is how many bulk reports mixed-priority reads its peak RSS
// over. Each finished report keeps its rendered result (about 70 KiB of
// heap at 600 steps) until the daemon's cap of 256 such records, so
// memory grows with every report, and a peak read at the end of the
// timed phase would follow how many reports the host's speed allowed.
// Read over a fixed number of reports, it follows the service's memory
// use instead.
const rssReports = 64

// coldDigestTasks is how many leading tasks per client enter the cold
// digest: few enough that every run completes them on a slow host.
const coldDigestTasks = 4

// workload is one traffic mix; BENCHMARK.json says why each exists.
type workload struct {
	name string
	run  func(e *env) (*result, error)
}

var workloads = []workload{
	{"cold-campaign", runColdCampaign},
	{"warm-resubmit", runWarmResubmit},
	{"mixed-priority", runMixedPriority},
	{"remote-cold", runRemoteCold},
}

var tableVI = experiments.TableVICampaigns(experiments.TableVIRows(nil))

// campaignJob is a 12-run job (all scenarios x both paper gaps) of the
// i-th Table VI campaign, cycling through the grid.
func campaignJob(i int, baseSeed int64, steps int) service.JobSpec {
	c := tableVI[i%len(tableVI)]
	return service.JobSpec{Steps: steps, BaseSeed: baseSeed, Salt: c.Salt, Fault: c.Fault, Interventions: c.Interventions}
}

// soleJob is a one-run job: one scenario and gap of the i-th campaign.
func soleJob(i int, baseSeed int64, steps int) service.JobSpec {
	j := campaignJob(i, baseSeed, steps)
	ids, gaps := scenario.All(), scenario.InitialGaps()
	j.Scenarios = []scenario.ID{ids[(i/len(tableVI))%len(ids)]}
	j.Gaps = []float64{gaps[i%len(gaps)]}
	return j
}

// cutInSearch is a small boundary search on the cut-in family.
func cutInSearch(baseSeed int64) explore.Spec {
	return explore.Spec{
		Family:        "cut-in",
		BaseSeed:      baseSeed,
		Interventions: core.InterventionSet{Driver: true},
		Boundary:      &explore.BoundarySpec{Axis: "trigger_gap", Min: 10, Max: 60, Tolerance: 20},
	}
}

// tableVIReport is a cold Table VI report at one repetition.
func tableVIReport(baseSeed int64) report.Spec {
	return report.Spec{Artifacts: []string{report.Table6}, Reps: 1, Steps: 600, BaseSeed: baseSeed}
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

func latencies(ss []sample, keep func(*sample) bool) []float64 {
	var out []float64
	for i := range ss {
		if !ss[i].failed && (keep == nil || keep(&ss[i])) {
			out = append(out, ss[i].e2eMs)
		}
	}
	return out
}

// closedMetrics records the end-to-end metrics of a closed-loop phase
// from start to deadline, over which the steal meter m ran: runs
// completed per second and the p50/p90 latency of the tasks keep
// selects, in unstolen time (steal.go), with the wall-clock figures
// beside them. A task that straddles the deadline is credited the share
// of its runs that its time before the deadline makes up, so throughput
// is not rounded to whole tasks; latencies are those of the tasks that
// ended by the deadline.
func closedMetrics(r *result, ss []sample, start, deadline time.Time, m *stealMeter, keep func(*sample) bool) {
	ordered := append([]sample(nil), ss...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].end().Before(ordered[j].end()) })
	secs := deadline.Sub(start).Seconds()
	var runs float64
	var lat []float64
	for i := range ordered {
		s := &ordered[i]
		if s.failed {
			continue
		}
		t0, t1 := s.sent.Sub(start).Seconds(), s.end().Sub(start).Seconds()
		if hi := min(t1, secs); hi > t0 {
			runs += float64(s.completed) * (hi - max(t0, 0)) / (t1 - t0)
		}
		if t1 <= secs && (keep == nil || keep(s)) {
			lat = append(lat, s.e2eMs)
		}
	}
	throughputMetrics(r, runs, secs, m)
	latencyMetrics(r, lat, m)
	first, last := thirds(lat)
	r.extra["p50_first_third_ms"] = median(first)
	r.extra["p50_last_third_ms"] = median(last)
	r.steadyGuard("timed phase", median(first), median(last))
}

// throughputMetrics records runs per second over secs of wall time in
// unstolen time, with the wall-clock figure beside it.
func throughputMetrics(r *result, runs, secs float64, m *stealMeter) {
	r.e2e["runs_per_s"] = runs / (secs * m.unstolen())
	r.extra["wall.runs_per_s"] = runs / secs
	r.extra["timed.steal_share"] = m.share()
}

// latencyMetrics records the gated latency figures of a phase, p50 and
// p90, in unstolen time, with the wall-clock figures beside them. The
// gated tail is p90, not the highest percentile the samples support:
// on a shared host p95 and p99 swing with the hypervisor's stalls far
// more than with the service (on a 2-vCPU VM at 9-28% steal, ten
// warm-resubmit runs spread 38% at p95 and 21% at p90). p95 is recorded
// beside it.
func latencyMetrics(r *result, lat []float64, m *stealMeter) {
	p50, p90 := median(lat), percentile(lat, 0.90)
	r.e2e["task_p50_ms"] = p50 * m.unstolen()
	r.e2e["task_p90_ms"] = p90 * m.unstolen()
	r.extra["wall.task_p50_ms"] = p50
	r.extra["wall.task_p90_ms"] = p90
	r.extra["wall.task_p95_ms"] = percentile(lat, 0.95)
	r.extra["tasks_timed"] = float64(len(lat))
	r.extra["task_p90_beyond"] = float64(beyond(len(lat), 0.90))
	if !tailSupported(len(lat), 0.90) {
		r.note("only %d latency samples: p90 has fewer than %d beyond it", len(lat), minBeyond)
	}
}

// scrapeBoth reads /metrics and /healthz.
func scrapeBoth(c *client.Client) (exposition, service.HealthResponse, error) {
	m, err := scrapeMetrics(c)
	if err != nil {
		return nil, service.HealthResponse{}, err
	}
	h, err := health(c)
	return m, h, err
}

// jobReplay gathers replay inputs from job specs: their planned runs,
// their TaskSpecs, and their cache keys.
func jobReplay(rng *rand.Rand, specs []service.JobSpec, cacheDir string) (replayInputs, error) {
	in := replayInputs{cacheDir: cacheDir}
	var runs []core.Options
	var keys []string
	for _, sp := range specs {
		_, reqs, ks, err := jobRequests(sp)
		if err != nil {
			return in, err
		}
		for _, rq := range reqs {
			runs = append(runs, rq.Opts)
		}
		keys = append(keys, ks...)
		in.specs = append(in.specs, sp)
	}
	in.runs = sampleOf(rng, runs, 6)
	in.specs = sampleOf(rng, in.specs, 8)
	in.keys = sampleOf(rng, keys, 256)
	return in, nil
}

func runColdCampaign(e *env) (*result, error) { return runCold(e, false) }

func runRemoteCold(e *env) (*result, error) { return runCold(e, true) }

// runCold drives one closed-loop client of fresh-seed 12-run Table VI
// jobs at paper-default steps, optionally with every run leased to one
// in-process remote worker. One client, not one per CPU: a job's runs
// already fill the CPUs, and a second client's job in the queue made
// the median task wait behind another about half the time, so the
// median sat on the edge between the waiting and not-waiting modes of
// the latency distribution and jumped by a fifth or more with the
// host's steal.
func runCold(e *env, remote bool) (*result, error) {
	r := newResult()
	dm, err := bootMeasured(r, daemonConfig(e.path("cache"), ""), boots, e.probe(600))
	if err != nil {
		return nil, err
	}
	defer dm.close() // error paths; the timed path closes and checks it
	c := newClient(dm.base)
	stopWorker := func() error { return nil }
	if remote {
		if stopWorker, err = startWorker(dm.base); err != nil {
			return nil, err
		}
		defer stopWorker()
	}
	specFor := func(i int) service.JobSpec { return campaignJob(i, freshSeed(e.seed, 0, i), 0) }
	m0, h0, err := scrapeBoth(c)
	if err != nil {
		return nil, err
	}
	resetPeakRSS(r)
	var steal stealMeter
	start := time.Now()
	deadline := start.Add(e.dur(1))
	endSteal := steal.span()
	per, _ := closedLoop(deadline, func(i int) sample {
		return runTask(c, e.tracerFor(i), request{kind: "jobs", spec: specFor(i), class: "job12", specIdx: -1}, time.Now())
	})
	endSteal()
	r.e2e["peak_rss_mb"] = peakRSSMB()
	m1, h1, err := scrapeBoth(c)
	if err != nil {
		return nil, err
	}
	if err := stopWorker(); err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	if err := dm.close(); err != nil {
		return nil, err
	}

	all := per[0]
	if len(all) > 0 {
		want, err := expectedJobBytes(experiments.NewPool(0), specFor(0))
		checkAgainst(r, &all[0], want, err)
	}
	var ds [][32]byte
	for i := range all {
		s := &all[i]
		if !s.failed && (s.totalRuns != 12 || s.completed != 12 || s.cacheHits != 0) {
			s.failed = true
			s.problem = fmt.Sprintf("cold job reported %d/%d runs with %d cache hits", s.completed, s.totalRuns, s.cacheHits)
		}
		if i < coldDigestTasks {
			ds = append(ds, s.digest)
		}
	}
	r.coldDigest = digestOf(ds)
	r.count(all)
	runs := 0
	for i := range all {
		if !all[i].failed {
			runs += all[i].completed
		}
	}
	closedMetrics(r, all, start, deadline, &steal, nil)

	m := delta(m0, m1, "adasim_remote_runs_total")
	if remote && int(m) != runs {
		r.problem("remote worker completed %d runs of the %d the jobs ran", int(m), runs)
	}
	if remote {
		r.extra["remote_runs_share"] = m / float64(runs)
	}

	if e.tr != nil {
		taskLayers(r, all)
		serverLayers(r, m0, m1, h0, h1)
		r.layer[mTraceOverhead] = tracingOverhead(all)
		var specs []service.JobSpec
		for i := 0; i < len(all) && i < 16; i++ {
			specs = append(specs, specFor(i))
		}
		in, err := jobReplay(rand.New(rand.NewSource(freshSeed(e.seed, streamReplay, 0))), specs, e.path("cache"))
		if err != nil {
			return nil, err
		}
		if err := replayLayers(r, in); err != nil {
			return nil, err
		}
		r.notApplicable("no journal on this workload", mJournalAppends, mJournalP50)
		r.notApplicable("no reports or explorations on this workload", mReportRuns, mExploreProbes, mExploreTaskMs)
		r.notApplicable("closed loop: no generator", mGenSent, mGenLateP99)
		if !remote {
			r.notApplicable("no remote worker on this workload", mRemoteBatchP50, mRemoteRuns, mRemoteRequeued)
		}
	}
	return r, nil
}

// startWorker runs an in-process remote worker against base and waits
// until the coordinator lists it. stop cancels it and waits for Run to
// return.
func startWorker(base string) (stop func() error, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	w := worker.New(worker.Config{Coordinator: base, Name: "svcbench", Parallelism: runtime.NumCPU()})
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	var once sync.Once
	var stopErr error
	stop = func() error {
		once.Do(func() {
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				stopErr = err
			}
		})
		return stopErr
	}
	c := newClient(base)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ws, err := c.Workers(); err == nil && ws.Fleet.Connected > 0 {
			return stop, nil
		}
		if time.Now().After(deadline) {
			_ = stop()
			return nil, errors.New("remote worker did not register within 10s")
		}
	}
}

// Warm working set: 256 12-run and 2560 one-run specs, 5632 runs in
// all, 1.375x the daemon's default 4096 in-memory cache entries, so a
// share of lookups falls through to the segment store. Every
// warmMix12-th request resubmits a 12-run job, the rest one-run jobs,
// so both the assembled and the sole-run results paths are served.
const (
	warm12Specs = 256
	warm1Specs  = 2560
	warmSteps   = 600
	warmMix12   = 4
	// warmRounds is how many rounds the timed phases run in.
	warmRounds = 3
	// capacityShare of each round measures closed-loop capacity.
	capacityShare = 0.45
	sloP99Ms      = 20
	// backlogGrowthMs is how much the generator's median lateness may
	// rise from the first to the last third of a phase before the
	// backlog counts as growing.
	backlogGrowthMs = 5
)

// warmRates are the open-loop rates (tasks/s) and the share of each
// round each one runs: every rate gathers over a thousand samples in a
// 25 s run, enough for its p99.
var warmRates = []struct{ rate, share float64 }{{150, 0.30}, {300, 0.15}, {450, 0.10}}

// warmPick chooses the spec the i-th warm request resubmits.
func warmPick(rng *rand.Rand, i int) int {
	if i%warmMix12 == 0 {
		return rng.Intn(warm12Specs)
	}
	return warm12Specs + rng.Intn(warm1Specs)
}

// poissonSchedule is the seeded arrival schedule of an open loop at
// rate requests per second over dur: exponential gaps, independent
// users.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, pick func(rng *rand.Rand, i int) int) []arrival {
	var out []arrival
	t := 0.0
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, spec: pick(rng, i)})
	}
}

// computeWorkingSet computes every spec once on a daemon over cacheDir
// and returns each one's results digest.
func computeWorkingSet(cacheDir string, specs []service.JobSpec) ([][32]byte, error) {
	dm, err := boot(daemonConfig(cacheDir, ""))
	if err != nil {
		return nil, err
	}
	defer dm.close()
	c := newClient(dm.base)
	out := make([][32]byte, len(specs))
	var mu sync.Mutex
	next := 0
	var firstErr error
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				next++
				stop := firstErr != nil
				mu.Unlock()
				if stop || j >= len(specs) {
					return
				}
				s := runTask(c, nil, request{kind: "jobs", spec: specs[j], specIdx: j}, time.Now())
				if s.failed {
					mu.Lock()
					firstErr = fmt.Errorf("computing warm spec %d: %s", j, s.problem)
					mu.Unlock()
					return
				}
				out[j] = s.digest
			}
		}()
	}
	wg.Wait()
	if err := dm.close(); err != nil {
		return nil, err
	}
	return out, firstErr
}

// phase summarises one timed open-loop phase.
type phase struct {
	n, failed           int
	p50, p99, lateP99   float64
	p50First, p50Last   float64
	lateFirst, lateLast float64
}

func summarisePhase(ss []sample) phase {
	var p phase
	var lat, late []float64
	for i := range ss {
		p.n++
		if ss[i].failed {
			p.failed++
			continue
		}
		lat = append(lat, ss[i].e2eMs)
		late = append(late, ss[i].lateMs)
	}
	p.p50, p.p99 = median(lat), percentile(lat, 0.99)
	p.lateP99 = percentile(late, 0.99)
	f, l := thirds(lat)
	p.p50First, p.p50Last = median(f), median(l)
	f, l = thirds(late)
	p.lateFirst, p.lateLast = median(f), median(l)
	return p
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runWarmResubmit computes the working set, boots a fresh daemon on its
// store, fills task retention to its cap, then measures closed-loop
// capacity and open-loop latency at each fixed rate.
func runWarmResubmit(e *env) (*result, error) {
	r := newResult()
	cacheDir := e.path("cache")
	specs := make([]service.JobSpec, 0, warm12Specs+warm1Specs)
	for j := 0; j < warm12Specs; j++ {
		specs = append(specs, campaignJob(j, freshSeed(e.seed, streamWarm12, j), warmSteps))
	}
	for j := 0; j < warm1Specs; j++ {
		specs = append(specs, soleJob(j, freshSeed(e.seed, streamWarm1, j), warmSteps))
	}
	recorded, err := computeWorkingSet(cacheDir, specs)
	if err != nil {
		return nil, err
	}
	probe := 0
	dm, err := bootMeasured(r, daemonConfig(cacheDir, ""), boots, func(c *client.Client) (string, error) {
		probe++
		v, err := c.SubmitTask("jobs", specs[warm12Specs+probe], "")
		return v.ID, err
	})
	if err != nil {
		return nil, err
	}
	defer dm.close() // error paths; the timed path closes and checks it
	c := newClient(dm.base)

	// Retention fill: enough tasks that finished job records sit at the
	// cap before timing starts, so per-task retention work is at its
	// steady-state cost. Submitted in-process: this is set-up.
	fill := rand.New(rand.NewSource(freshSeed(e.seed, streamFill, 0)))
	for i := 0; i < maxJobRecords+64; i++ {
		v, err := dm.d.SubmitTask(service.JobKind, specs[warmPick(fill, i)], "")
		if err != nil {
			return nil, fmt.Errorf("retention fill: %w", err)
		}
		<-dm.d.TaskDone(v.ID)
	}
	h, err := health(c)
	if err != nil {
		return nil, err
	}
	atCap := h.Tasks["jobs"][service.StatusDone] >= maxJobRecords
	r.extra["retention_at_cap"] = b2f(atCap)
	if !atCap {
		r.problem("retention below its cap when timing began: %d finished jobs", h.Tasks["jobs"][service.StatusDone])
	}

	// Timed requests only submit, watch and fetch results, as a client
	// does; each batch's status views are read after it, for the oracle
	// and the server-side durations, while the records are retained.
	do := func(j int, due time.Time) sample {
		class := "job1"
		if j < warm12Specs {
			class = "job12"
		}
		return sendTask(c, request{kind: "jobs", spec: specs[j], class: class, specIdx: j}, due)
	}
	check := func(ss []sample) {
		for i := range ss {
			s := &ss[i]
			readView(c, e.tracerFor(i), s)
			want := 1
			if s.spec < warm12Specs {
				want = 12
			}
			switch {
			case s.failed:
			case s.digest != recorded[s.spec]:
				s.failed, s.problem = true, fmt.Sprintf("warm %s spec %d: served bytes differ from the bytes computed at set-up", s.class, s.spec)
			case s.totalRuns != want || s.cacheHits != want:
				s.failed, s.problem = true, fmt.Sprintf("warm %s spec %d: %d cache hits of %d runs", s.class, s.spec, s.cacheHits, s.totalRuns)
			}
		}
	}

	m0, h0, err := scrapeBoth(c)
	if err != nil {
		return nil, err
	}
	// The timed phases run in rounds: each round measures closed-loop
	// capacity, then every fixed rate in turn, so a spell of interference
	// on the host lands on every phase alike. The gated figures are the
	// capacity phase's: it keeps the CPUs busy, so its figures in
	// unstolen time (steal.go) hold steady while the host's steal moves.
	// The fixed rates' latencies, which leave the CPUs partly idle, are
	// recorded as measured, in wall time, with the SLO rate.
	resetPeakRSS(r)
	roundSecs := e.seconds / warmRounds
	capFns := make([]func(int) sample, runtime.NumCPU())
	for k := range capFns {
		rng := rand.New(rand.NewSource(freshSeed(e.seed, streamCapacity, k)))
		capFns[k] = func(i int) sample { return do(warmPick(rng, i), time.Now()) }
	}
	var capSteal stealMeter
	var capRuns, capSecs float64
	var capAll []sample
	byRate := make([][]sample, len(warmRates))
	growth := make([][]float64, len(warmRates))
	sent := 0
	for round := 0; round < warmRounds; round++ {
		capStart := time.Now()
		endSteal := capSteal.span()
		capPer, capEnd := closedLoop(capStart.Add(time.Duration(capacityShare*roundSecs*float64(time.Second))), capFns...)
		endSteal()
		capSecs += capEnd.Sub(capStart).Seconds()
		for _, ss := range capPer {
			check(ss)
			for _, s := range ss {
				if !s.failed {
					capRuns += float64(s.totalRuns)
				}
				capAll = append(capAll, s)
			}
		}
		for ri, wr := range warmRates {
			rng := rand.New(rand.NewSource(freshSeed(e.seed, streamRate, round*len(warmRates)+ri)))
			sched := poissonSchedule(rng, wr.rate, time.Duration(wr.share*roundSecs*float64(time.Second)), warmPick)
			sent += len(sched)
			ss := openLoop(runtime.NumCPU(), time.Now().Add(time.Millisecond), sched, func(a arrival, due time.Time) sample {
				return do(a.spec, due)
			})
			check(ss)
			p := summarisePhase(ss)
			growth[ri] = append(growth[ri], p.lateLast-p.lateFirst)
			byRate[ri] = append(byRate[ri], ss...)
		}
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	m1, h1, err := scrapeBoth(c)
	if err != nil {
		return nil, err
	}
	if err := dm.close(); err != nil {
		return nil, err
	}

	r.count(capAll)
	sort.Slice(capAll, func(i, j int) bool { return capAll[i].end().Before(capAll[j].end()) })
	capLat := latencies(capAll, nil)
	f, l := thirds(capLat)
	r.extra["capacity.p50_first_third_ms"] = median(f)
	r.extra["capacity.p50_last_third_ms"] = median(l)
	r.steadyGuard("capacity phase", median(f), median(l))
	var timed []sample
	slo := 0.0
	for ri, wr := range warmRates {
		rate := wr.rate
		ss := byRate[ri]
		r.count(ss)
		p := summarisePhase(ss)
		// The backlog grows when lateness climbs across a phase in the
		// typical round, not in one disturbed round. A failed or refused
		// request misses the limit.
		growing := median(growth[ri]) > backlogGrowthMs
		meets := p.failed == 0 && tailSupported(p.n, 0.99) && p.p99 <= sloP99Ms && !growing
		tag := fmt.Sprintf("r%.0f", rate)
		r.extra["p50_ms_"+tag] = p.p50
		r.extra["p99_ms_"+tag] = p.p99
		r.extra[tag+".late_p99_ms"] = p.lateP99
		r.extra[tag+".p50_first_third_ms"] = p.p50First
		r.extra[tag+".p50_last_third_ms"] = p.p50Last
		r.steadyGuard(tag+" phase", p.p50First, p.p50Last)
		r.extra[tag+".late_growth_ms"] = median(growth[ri])
		r.extra[tag+".backlog_growing"] = b2f(growing)
		r.extra[tag+".samples"] = float64(p.n)
		if meets {
			slo = rate
		}
		timed = append(timed, ss...)
	}
	r.extra["slo_rate_per_s"] = slo
	throughputMetrics(r, capRuns, capSecs, &capSteal)
	latencyMetrics(r, capLat, &capSteal)

	if e.tr != nil {
		taskLayers(r, timed)
		serverLayers(r, m0, m1, h0, h1)
		r.layer[mTraceOverhead] = tracingOverhead(capAll)
		var late []float64
		for i := range timed {
			late = append(late, timed[i].lateMs)
		}
		r.layer[mGenSent] = float64(sent)
		r.layer[mGenLateP99] = percentile(late, 0.99)
		in, err := jobReplay(rand.New(rand.NewSource(freshSeed(e.seed, streamReplay, 0))), specs, cacheDir)
		if err != nil {
			return nil, err
		}
		if err := replayLayers(r, in); err != nil {
			return nil, err
		}
		r.notApplicable("no journal on this workload", mJournalAppends, mJournalP50)
		r.notApplicable("no reports or explorations on this workload", mReportRuns, mExploreProbes, mExploreTaskMs)
		r.notApplicable("no remote worker on this workload", mRemoteBatchP50, mRemoteRuns, mRemoteRequeued)
	}
	return r, nil
}

// runMixedPriority runs a bulk client that always has one cold Table VI
// report in the queue against an interactive client of fresh one-run
// jobs and, every fourth slot, a small boundary search, on a daemon
// with a journal and a disk cache.
func runMixedPriority(e *env) (*result, error) {
	r := newResult()
	dm, err := bootMeasured(r, daemonConfig(e.path("cache"), e.path("journal")), boots, e.probe(600))
	if err != nil {
		return nil, err
	}
	defer dm.close() // error paths; the timed path closes and checks it
	c := newClient(dm.base)

	jobFor := func(i int) service.JobSpec { return soleJob(i, freshSeed(e.seed, streamInteractive, i), 0) }
	interactive := func(i int) request {
		if i%4 == 3 {
			return request{kind: "explorations", spec: cutInSearch(freshSeed(e.seed, streamExplore, i)), class: "explore", specIdx: -1}
		}
		return request{kind: "jobs", spec: jobFor(i), class: "job1", specIdx: -1}
	}
	m0, h0, err := scrapeBoth(c)
	if err != nil {
		return nil, err
	}
	resetPeakRSS(r)
	var steal stealMeter
	start := time.Now()
	deadline := start.Add(e.dur(1))
	endSteal := steal.span()
	rss := math.NaN() // peak RSS once rssReports bulk reports are done
	per, _ := closedLoop(deadline,
		func(i int) sample {
			s := runTask(c, e.tracerFor(i), request{kind: "reports", spec: tableVIReport(freshSeed(e.seed, streamBulk, i)), class: "bulk", specIdx: -1}, time.Now())
			if i == rssReports-1 {
				rss = peakRSSMB()
			}
			return s
		},
		func(i int) sample { return runTask(c, e.tracerFor(i), interactive(i), time.Now()) },
	)
	endSteal()
	if math.IsNaN(rss) {
		rss = peakRSSMB()
		r.note("peak RSS read at the end of the timed phase: fewer than %d bulk reports finished", rssReports)
	}
	r.e2e["peak_rss_mb"] = rss
	m1, h1, err := scrapeBoth(c)
	if err != nil {
		return nil, err
	}
	if err := dm.close(); err != nil {
		return nil, err
	}
	bulk, inter := per[0], per[1]

	pool := experiments.NewPool(0)
	if len(bulk) > 0 {
		want, err := expectedReportBytes(pool, tableVIReport(freshSeed(e.seed, streamBulk, 0)))
		checkAgainst(r, &bulk[0], want, err)
	}
	for i := 0; i < len(inter) && i < 4; i++ {
		var want []byte
		var err error
		switch rq := interactive(i); rq.class {
		case "explore":
			want, err = expectedExploreBytes(pool, rq.spec.(explore.Spec))
		default:
			want, err = expectedJobBytes(pool, rq.spec.(service.JobSpec))
		}
		checkAgainst(r, &inter[i], want, err)
	}
	var ds [][32]byte
	for _, ss := range per {
		for i := range ss {
			s := &ss[i]
			if !s.failed && s.completed == 0 {
				s.failed, s.problem = true, fmt.Sprintf("%s task completed no runs", s.class)
			}
			if !s.failed && s.class == "job1" && (s.totalRuns != 1 || s.cacheHits != 0) {
				s.failed, s.problem = true, fmt.Sprintf("fresh one-run job reported %d runs, %d cache hits", s.totalRuns, s.cacheHits)
			}
			if i < coldDigestTasks {
				ds = append(ds, s.digest)
			}
		}
	}
	r.coldDigest = digestOf(ds)
	all := flatten(per)
	r.count(all)
	closedMetrics(r, all, start, deadline, &steal, func(s *sample) bool { return s.class != "bulk" })
	r.extra["bulk_p50_ms"] = median(latencies(bulk, nil))
	r.extra["bulk_tasks"] = float64(len(bulk))

	if e.tr != nil {
		taskLayers(r, inter)
		serverLayers(r, m0, m1, h0, h1)
		r.layer[mTraceOverhead] = tracingOverhead(inter)
		var reportRuns, probes []float64
		for i := range all {
			switch all[i].class {
			case "bulk":
				reportRuns = append(reportRuns, float64(all[i].completed))
			case "explore":
				probes = append(probes, float64(all[i].completed))
			}
		}
		r.layer[mReportRuns] = mean(reportRuns)
		r.layer[mExploreProbes] = mean(probes)
		r.layer[mExploreTaskMs] = median(latencies(inter, func(s *sample) bool { return s.class == "explore" }))
		var jobs []service.JobSpec
		for i := 0; i < len(inter) && len(jobs) < 16; i++ {
			if rq := interactive(i); rq.class == "job1" {
				jobs = append(jobs, jobFor(i))
			}
		}
		rng := rand.New(rand.NewSource(freshSeed(e.seed, streamReplay, 0)))
		in, err := jobReplay(rng, jobs, e.path("cache"))
		if err != nil {
			return nil, err
		}
		for _, ts := range []struct {
			kind *service.TaskKind
			spec any
		}{
			{service.ReportKind, tableVIReport(freshSeed(e.seed, streamBulk, 0))},
			{service.ExplorationKind, cutInSearch(freshSeed(e.seed, streamExplore, 3))},
		} {
			b, err := wireBytes(ts.spec)
			if err != nil {
				return nil, err
			}
			sp, err := ts.kind.Decode(b)
			if err != nil {
				return nil, err
			}
			in.specs = append(in.specs, sp)
		}
		if err := replayLayers(r, in); err != nil {
			return nil, err
		}
		r.notApplicable("no remote worker on this workload", mRemoteBatchP50, mRemoteRuns, mRemoteRequeued)
		r.notApplicable("closed loop: no generator", mGenSent, mGenLateP99)
	}
	return r, nil
}
