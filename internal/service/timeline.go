// Per-task lifecycle timelines: every task record carries an ordered
// list of {ts, event, detail} entries appended at each state
// transition (and at run-progress strides while running), served whole
// at GET /v1/tasks/{id}/events and streamed live over SSE. The
// timeline is part of the task record — it costs a handful of small
// entries per task, is retained and pruned with the record, and is
// always on (it is an API feature, not optional instrumentation).
package service

import (
	"time"
)

// Timeline event vocabulary. Terminal event names equal the terminal
// Status strings, so a stream consumer can end on the first event whose
// name parses as a terminal status — and the server closes the stream
// right after sending it.
const (
	EventSubmitted       = "submitted"
	EventQueued          = "queued"
	EventStarted         = "started"
	EventProgress        = "progress"
	EventCancelRequested = "cancel_requested"
	EventDone            = string(StatusDone)
	EventFailed          = string(StatusFailed)
	EventCanceled        = string(StatusCanceled)
)

// TimelineEvent is one entry of a task's lifecycle timeline.
type TimelineEvent struct {
	TS     time.Time `json:"ts"`
	Event  string    `json:"event"`
	Detail string    `json:"detail,omitempty"`
}

// TaskEventsResponse is the wire format of GET /v1/tasks/{id}/events.
type TaskEventsResponse struct {
	ID     string          `json:"id"`
	Events []TimelineEvent `json:"events"`
}

// timelineSubBuffer sizes a live subscriber's channel. Sends are
// non-blocking under the dispatcher lock — a stalled SSE consumer
// drops events rather than stalling the scheduler; the terminal state
// still reaches it through the channel close.
const timelineSubBuffer = 64

// progressStrideFor returns how many completed units between progress
// events: about sixteen per task for sized plans, every sixteen units
// for adaptive ones (Total 0, e.g. boundary searches).
func progressStrideFor(total int) int {
	if total <= 0 {
		return 16
	}
	stride := (total + 15) / 16
	if stride < 1 {
		stride = 1
	}
	return stride
}

// appendEventLocked appends one timeline entry and fans it out to the
// live subscribers (non-blocking; see timelineSubBuffer). d.mu must be
// held — which also makes the timeline order the record's state order.
func (d *Dispatcher) appendEventLocked(t *task, event, detail string) {
	ev := TimelineEvent{TS: time.Now().UTC(), Event: event, Detail: detail}
	t.timeline = append(t.timeline, ev)
	for _, ch := range t.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// closeSubsLocked ends every live subscription — called exactly once,
// right after the terminal event was appended. d.mu must be held.
func (d *Dispatcher) closeSubsLocked(t *task) {
	for _, ch := range t.subs {
		close(ch)
	}
	t.subs = nil
}

// TaskEvents returns a copy of the task's timeline so far, if the task
// is known.
func (d *Dispatcher) TaskEvents(id string) ([]TimelineEvent, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return nil, false
	}
	out := make([]TimelineEvent, len(t.timeline))
	copy(out, t.timeline)
	return out, true
}

// WatchTask subscribes to a task's live timeline: it returns the
// events so far plus a channel delivering subsequent ones. The channel
// closes when the task reaches a terminal state (right after the
// terminal event is delivered) — for an already-terminal task it is
// closed on return, so the past slice is the whole story. The caller
// must call stop when done watching; stop is idempotent and safe after
// the close.
func (d *Dispatcher) WatchTask(id string) (past []TimelineEvent, events <-chan TimelineEvent, stop func(), ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tasks[id]
	if !ok {
		return nil, nil, nil, false
	}
	past = make([]TimelineEvent, len(t.timeline))
	copy(past, t.timeline)
	ch := make(chan TimelineEvent, timelineSubBuffer)
	if t.status.terminal() {
		close(ch)
		return past, ch, func() {}, true
	}
	t.subs = append(t.subs, ch)
	stop = func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		// If the terminal transition already closed the channel, it is
		// gone from t.subs and there is nothing to do.
		for i, c := range t.subs {
			if c == ch {
				t.subs = append(t.subs[:i], t.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return past, ch, stop, true
}
