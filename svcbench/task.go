package main

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"adasim/internal/client"
	"adasim/internal/service"
)

// sample is one task as the client saw it: submit, then wait on the
// SSE timeline for the terminal event, then fetch the results bytes.
// Latency runs from when the request was due to when the last results
// byte arrived; the task's status view is fetched after that, outside
// the timing, for the oracle and the server-side durations.
type sample struct {
	class string // workload-defined label: "job12", "interactive", "bulk", ...
	spec  int    // index of the spec in the workload's input set, -1 if fresh

	id                            string
	due, sent, submitted, watched time.Time
	e2eMs                         float64 // due -> results received
	lateMs                        float64 // due -> request sent
	// Client-side spans around the submit and results calls; the SSE
	// wait between them is recorded only as a traced span.
	submitMs, resultsMs float64
	// Server-side durations from the task's TaskView.
	queueMs, runMs float64
	totalRuns      int
	completed      int
	cacheHits      int

	bytes  int
	digest [32]byte

	traced  bool   // its spans were recorded
	failed  bool   // failed, refused, transport error or wrong bytes
	problem string // why, when failed
}

// end is when the task's results had arrived.
func (s *sample) end() time.Time { return s.due.Add(time.Duration(s.e2eMs * 1e6)) }

// sendMs is the latency from the moment the request was sent, which
// excludes the generator's own lateness.
func (s *sample) sendMs() float64 { return s.e2eMs - s.lateMs }

// outsideRunMs is what the task spent outside queueing and execution:
// HTTP, admission, finalize, retention, result encoding and transfer.
func (s *sample) outsideRunMs() float64 { return s.sendMs() - s.queueMs - s.runMs }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// request is one task submission of a workload.
type request struct {
	kind    string // route plural: "jobs", "reports", "explorations"
	spec    any    // submitted at the kind's default priority
	class   string
	specIdx int // index into the workload's input set, -1 if fresh
}

// runTask drives one task through the API and then reads its status.
// With a non-nil tracer the task's spans are recorded.
func runTask(c *client.Client, tr *tracer, r request, due time.Time) sample {
	s := sendTask(c, r, due)
	readView(c, tr, &s)
	return s
}

// sendTask submits a task, follows its SSE timeline to the terminal
// event and fetches the results bytes: the whole client-visible life of
// the task, timed from due.
func sendTask(c *client.Client, r request, due time.Time) sample {
	s := sample{class: r.class, spec: r.specIdx, due: due}
	s.sent = time.Now()
	s.lateMs = ms(s.sent.Sub(due))
	fail := func(format string, args ...any) sample {
		s.failed = true
		s.problem = fmt.Sprintf(format, args...)
		s.e2eMs = ms(time.Since(due))
		return s
	}
	view, err := c.SubmitTask(r.kind, r.spec, "")
	s.submitted = time.Now()
	s.submitMs = ms(s.submitted.Sub(s.sent))
	if err != nil {
		return fail("submit %s: %v", r.kind, err)
	}
	s.id = view.ID
	terminal := ""
	err = c.WatchTask(view.ID, func(ev service.TimelineEvent) {
		switch ev.Event {
		case service.EventDone, service.EventFailed, service.EventCanceled:
			terminal = ev.Event
		}
	})
	s.watched = time.Now()
	if err != nil {
		return fail("watch %s: %v", view.ID, err)
	}
	if terminal != service.EventDone {
		return fail("task %s ended %q", view.ID, terminal)
	}
	body, err := c.TaskResults(view.ID)
	received := time.Now()
	s.resultsMs = ms(received.Sub(s.watched))
	s.e2eMs = ms(received.Sub(due))
	if err != nil {
		return fail("results %s: %v", view.ID, err)
	}
	s.bytes = len(body)
	s.digest = sha256.Sum256(body)
	return s
}

// readView fetches a sent task's TaskView, outside its timing, for the
// oracle and the server-side queue-wait and run durations, and records
// the task's spans when tr is non-nil. The record must still be
// retained, so callers read views soon after sending.
func readView(c *client.Client, tr *tracer, s *sample) {
	if s.failed {
		return
	}
	final, err := c.Task(s.id)
	if err != nil {
		s.failed, s.problem = true, fmt.Sprintf("status %s: %v", s.id, err)
		return
	}
	s.queueMs, s.runMs = final.QueueWaitMillis, final.RunMillis
	s.totalRuns, s.completed, s.cacheHits = final.TotalRuns, final.CompletedRuns, final.CacheHits
	if final.Status != service.StatusDone {
		s.failed, s.problem = true, fmt.Sprintf("task %s status %s", s.id, final.Status)
	}
	if tr != nil {
		tr.recordTask(s.sent, s.submitted, s.watched, s.end(), s.queueMs, s.runMs)
		s.traced = true
	}
}

// closedLoop runs one goroutine per client function until deadline:
// each client sends its next task only after the previous one
// completes, and stops sending once the deadline has passed. It returns
// each client's samples in order and the time the last task ended.
func closedLoop(deadline time.Time, clients ...func(i int) sample) ([][]sample, time.Time) {
	out := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for k, next := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				out[k] = append(out[k], next(i))
			}
		}()
	}
	wg.Wait()
	return out, time.Now()
}

// arrival is one scheduled request of an open loop: its offset from the
// phase start and the index of the input it resubmits.
type arrival struct {
	at   time.Duration
	spec int
}

// openLoop sends the scheduled requests from senders goroutines. Each
// sender takes the next arrival, sleeps until it is due and runs it to
// completion; latency counts from the due time, so a stall delays and
// penalises every request behind it rather than silently thinning the
// load.
func openLoop(senders int, start time.Time, sched []arrival, do func(a arrival, due time.Time) sample) []sample {
	out := make([]sample, len(sched))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].at)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				out[i] = do(sched[i], due)
			}
		}()
	}
	wg.Wait()
	return out
}
