// The write-ahead task journal: the durability layer beneath the task
// runtime. Every accepted submission is appended (and fsynced) before
// the task becomes visible in the queue, and every terminal transition
// (done/failed/canceled) is appended when the record finalizes — so the
// set of non-terminal submissions is always recoverable from disk. On
// boot the dispatcher replays the journal and re-submits the survivors
// in their original submission order; runs whose outcomes are already in
// the content-addressed disk cache are served from it, so recovery is
// mostly cache hits.
//
// Layout: a journal directory holds append-only JSONL segments named
// journal-%08d.wal, replayed in name order. Terminal records cancel
// submit records with the same ID. When the active segment outgrows its
// size bound the journal compacts: the still-live submit records are
// rewritten into a fresh segment (write temp, fsync, rename) and the old
// segments are deleted, so journal size is bounded by the live task set
// plus one segment, not by submission history. A torn final line — the
// expected residue of a crash mid-append — is skipped and counted, never
// fatal.
package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adasim/internal/obs"
)

// Journal ops. Submit is the only op carrying a spec; done/failed/
// canceled are the terminal transitions of the task state machine; seq
// is a compaction marker preserving the ID-sequence floor after the
// submissions that established it are compacted away (so post-recovery
// IDs never collide with pre-crash ones).
const (
	opSubmit   = "submit"
	opDone     = "done"
	opFailed   = "failed"
	opCanceled = "canceled"
	opSeq      = "seq"
)

// journalRecord is one JSONL line of the journal.
type journalRecord struct {
	Op string `json:"op"`
	ID string `json:"id"`
	// Seq is the dispatcher submission sequence number (submit only); it
	// restores the ID counter on recovery so new IDs never collide with
	// journaled ones.
	Seq int `json:"seq,omitempty"`
	// Kind is the plural route segment of the task's kind (submit only).
	Kind string `json:"kind,omitempty"`
	// Priority is the resolved scheduling class (submit only).
	Priority string `json:"priority,omitempty"`
	// Spec is the wire JSON of the spec as submitted (submit only); it
	// round-trips through the kind's strict Decode on replay.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Error is the failure message (failed only).
	Error string    `json:"error,omitempty"`
	At    time.Time `json:"at"`
}

// ReplayStats summarizes one journal replay.
type ReplayStats struct {
	// Segments is how many segment files were scanned.
	Segments int `json:"segments"`
	// LiveSubmits is how many non-terminal submissions survived replay.
	LiveSubmits int `json:"live_submits"`
	// TerminalTasks is how many journaled submissions were already
	// terminal (done/failed/canceled) and therefore not recovered.
	TerminalTasks int `json:"terminal_tasks"`
	// CorruptLines counts unparsable journal lines (torn tails from a
	// crash mid-append); they are skipped, never fatal.
	CorruptLines int `json:"corrupt_lines"`
	// MaxSeq is the highest submission sequence number seen.
	MaxSeq int `json:"-"`
}

// JournalStats is a point-in-time snapshot of the journal counters,
// served on /healthz when journaling is enabled.
type JournalStats struct {
	Dir          string `json:"dir"`
	LiveTasks    int    `json:"live_tasks"`
	SegmentBytes int64  `json:"segment_bytes"`
	Appends      int64  `json:"appends"`
	AppendErrors int64  `json:"append_errors"`
	Compactions  int64  `json:"compactions"`
}

// Journal is the append-only write-ahead task journal. It is safe for
// concurrent use; the dispatcher serializes appends under its own lock
// anyway so journal order matches submission order.
type Journal struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64

	seg      *os.File
	segSeq   int
	segBytes int64

	// live holds the submit record of every non-terminal task, in
	// submission order — exactly what compaction rewrites.
	live      map[string]journalRecord
	liveOrder []string
	// maxSeq is the highest submission sequence ever journaled; compaction
	// persists it as a seq marker so the floor survives history deletion.
	maxSeq int

	// Counters live in the obs registry (see newJournalMetrics): one
	// source of truth behind JournalStats and the adasim_journal_*
	// series, including the append+fsync latency histogram.
	met    *journalMetrics
	closed bool
}

// journalMaxSegmentBytes bounds the active segment before compaction
// rewrites the live set into a fresh one. At a few hundred bytes per
// record this is thousands of submissions per compaction cycle.
const journalMaxSegmentBytes = 1 << 20

const journalSegPattern = "journal-%08d.wal"

// openJournal opens (creating if needed) the journal at dir, replays the
// existing segments, compacts the live records into a fresh segment, and
// returns the journal plus the live submissions in original order. The
// replayed records are the recovery work list; the caller re-submits
// them. Counters record into reg (nil means a private registry).
func openJournal(dir string, maxBytes int64, reg *obs.Registry) (*Journal, []journalRecord, ReplayStats, error) {
	if maxBytes <= 0 {
		maxBytes = journalMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, ReplayStats{}, fmt.Errorf("service: creating journal dir: %w", err)
	}
	recs, stats, maxSegSeq, err := replaySegments(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	j := &Journal{
		dir:      dir,
		maxBytes: maxBytes,
		live:     make(map[string]journalRecord, len(recs)),
		maxSeq:   stats.MaxSeq,
		met:      newJournalMetrics(reg),
	}
	for _, r := range recs {
		j.live[r.ID] = r
		j.liveOrder = append(j.liveOrder, r.ID)
	}
	// Compact on open: boot is the one moment the live set is known to be
	// exactly the replayed records, so the rewritten segment both bounds
	// the journal and proves the directory is writable before any
	// submission is accepted.
	if err := j.compactLocked(maxSegSeq + 1); err != nil {
		return nil, nil, stats, err
	}
	return j, recs, stats, nil
}

// segmentNames lists the journal's segment files in replay (name) order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: reading journal dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "journal-") && strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// replaySegments scans every segment in order and reduces it to the live
// submit records: a submit enters the set, a terminal op removes it.
// Terminal records for unknown IDs (already compacted away) and
// duplicate submits (compaction overlap after an interrupted cleanup)
// are ignored; unparsable lines are counted and skipped.
func replaySegments(dir string) ([]journalRecord, ReplayStats, int, error) {
	names, err := segmentNames(dir)
	if err != nil {
		return nil, ReplayStats{}, 0, err
	}
	var stats ReplayStats
	stats.Segments = len(names)
	live := make(map[string]journalRecord)
	var order []string
	terminal := make(map[string]bool)
	maxSegSeq := 0
	for _, name := range names {
		var segSeq int
		if _, err := fmt.Sscanf(name, journalSegPattern, &segSeq); err == nil && segSeq > maxSegSeq {
			maxSegSeq = segSeq
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, stats, 0, fmt.Errorf("service: opening journal segment %s: %w", name, err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20) // reports are large specs
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				stats.CorruptLines++
				continue
			}
			if rec.Op == opSeq {
				if rec.Seq > stats.MaxSeq {
					stats.MaxSeq = rec.Seq
				}
				continue
			}
			if rec.ID == "" {
				stats.CorruptLines++
				continue
			}
			switch rec.Op {
			case opSubmit:
				if rec.Seq > stats.MaxSeq {
					stats.MaxSeq = rec.Seq
				}
				if terminal[rec.ID] {
					continue // terminal seen in an earlier segment
				}
				if _, ok := live[rec.ID]; ok {
					continue // compaction duplicate; keep the first position
				}
				live[rec.ID] = rec
				order = append(order, rec.ID)
			case opDone, opFailed, opCanceled:
				if _, ok := live[rec.ID]; ok {
					delete(live, rec.ID)
					stats.TerminalTasks++
				}
				terminal[rec.ID] = true
			default:
				stats.CorruptLines++
			}
		}
		ferr := sc.Err()
		f.Close()
		if ferr != nil {
			return nil, stats, 0, fmt.Errorf("service: scanning journal segment %s: %w", name, ferr)
		}
	}
	recs := make([]journalRecord, 0, len(live))
	for _, id := range order {
		if rec, ok := live[id]; ok {
			recs = append(recs, rec)
		}
	}
	stats.LiveSubmits = len(recs)
	return recs, stats, maxSegSeq, nil
}

// Append writes one record to the active segment and fsyncs it — the
// write-ahead contract: when Append returns nil the record survives a
// crash. It also maintains the live set and compacts when the active
// segment outgrows its bound.
func (j *Journal) Append(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("service: journal closed")
	}
	start := time.Now()
	err := j.appendLocked(rec)
	j.met.appendLat.Observe(time.Since(start).Seconds())
	if err != nil {
		j.met.appendErrors.Inc()
		return err
	}
	j.met.appends.Inc()
	switch rec.Op {
	case opSubmit:
		if rec.Seq > j.maxSeq {
			j.maxSeq = rec.Seq
		}
		if _, ok := j.live[rec.ID]; !ok {
			j.live[rec.ID] = rec
			j.liveOrder = append(j.liveOrder, rec.ID)
		}
	default:
		delete(j.live, rec.ID)
	}
	j.met.liveTasks.Set(int64(len(j.live)))
	j.met.segmentBytes.Set(j.segBytes)
	if j.segBytes > j.maxBytes {
		// Compaction failure is not fatal to the append: the record is
		// durable in the oversized segment; the next append retries.
		if err := j.compactLocked(j.segSeq + 1); err != nil {
			j.met.appendErrors.Inc()
		}
	}
	return nil
}

func (j *Journal) appendLocked(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: encoding journal record: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.seg.Write(b); err != nil {
		return fmt.Errorf("service: appending journal record: %w", err)
	}
	if err := j.seg.Sync(); err != nil {
		return fmt.Errorf("service: syncing journal: %w", err)
	}
	j.segBytes += int64(len(b))
	return nil
}

// compactLocked rewrites the live submit records into segment segSeq
// (write temp, fsync, rename — crash-safe at every step) and deletes the
// older segments. j.mu must be held.
func (j *Journal) compactLocked(segSeq int) error {
	old, err := segmentNames(j.dir)
	if err != nil {
		return err
	}
	name := fmt.Sprintf(journalSegPattern, segSeq)
	tmp, err := os.CreateTemp(j.dir, name+".tmp")
	if err != nil {
		return fmt.Errorf("service: creating journal segment: %w", err)
	}
	var size int64
	w := bufio.NewWriter(tmp)
	// The seq marker leads the segment: the ID-sequence floor must
	// survive even when every submission that established it is gone.
	if j.maxSeq > 0 {
		b, err := json.Marshal(journalRecord{Op: opSeq, Seq: j.maxSeq, At: time.Now().UTC()})
		if err == nil {
			b = append(b, '\n')
			if _, err = w.Write(b); err == nil {
				size += int64(len(b))
			}
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("service: writing journal seq marker: %w", err)
		}
	}
	// Prune IDs whose records went terminal while in the order list.
	kept := j.liveOrder[:0]
	for _, id := range j.liveOrder {
		rec, ok := j.live[id]
		if !ok {
			continue
		}
		kept = append(kept, id)
		b, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("service: encoding journal record: %w", err)
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("service: writing journal segment: %w", err)
		}
		size += int64(len(b))
	}
	j.liveOrder = kept
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("service: flushing journal segment: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: closing journal segment: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(j.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("service: publishing journal segment: %w", err)
	}
	// The compacted segment is durable; the active handle moves to it in
	// append mode and the superseded segments can go. A crash between the
	// rename and the deletes leaves duplicate submits, which replay
	// dedupes by ID.
	if j.seg != nil {
		j.seg.Close()
	}
	seg, err := os.OpenFile(filepath.Join(j.dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("service: reopening journal segment: %w", err)
	}
	j.seg = seg
	j.segSeq = segSeq
	j.segBytes = size
	j.met.compactions.Inc()
	j.met.liveTasks.Set(int64(len(j.live)))
	j.met.segmentBytes.Set(j.segBytes)
	for _, o := range old {
		if o != name {
			os.Remove(filepath.Join(j.dir, o))
		}
	}
	return nil
}

// Stats snapshots the journal counters from their registry series (the
// same ones /metrics exposes).
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Dir:          j.dir,
		LiveTasks:    len(j.live),
		SegmentBytes: j.segBytes,
		Appends:      int64(j.met.appends.Value()),
		AppendErrors: int64(j.met.appendErrors.Value()),
		Compactions:  int64(j.met.compactions.Value()),
	}
}

// Close releases the active segment. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.seg != nil {
		return j.seg.Close()
	}
	return nil
}
