package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testRecord(op, id string, seq int) journalRecord {
	return journalRecord{
		Op: op, ID: id, Seq: seq,
		Kind: "jobs", Priority: "interactive",
		Spec: json.RawMessage(`{"scenarios":[1]}`),
		At:   time.Date(2026, 8, 8, 0, 0, seq, 0, time.UTC),
	}
}

// TestJournalRoundTrip pins the write-ahead contract: appended
// submissions survive close and reopen, terminal records cancel them,
// and replay preserves the original submission order.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, stats, err := openJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.LiveSubmits != 0 {
		t.Fatalf("fresh journal not empty: %v %+v", recs, stats)
	}
	for i := 1; i <= 4; i++ {
		if err := j.Append(testRecord(opSubmit, fmt.Sprintf("j%06d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	// j000002 finishes, j000003 fails: both must not replay.
	if err := j.Append(journalRecord{Op: opDone, ID: "j000002", At: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord{Op: opFailed, ID: "j000003", Error: "boom", At: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.LiveTasks != 2 || st.Appends != 6 {
		t.Fatalf("stats = %+v, want 2 live / 6 appends", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, stats, err := openJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if stats.LiveSubmits != 2 || stats.TerminalTasks != 2 || stats.CorruptLines != 0 {
		t.Fatalf("replay stats = %+v", stats)
	}
	if stats.MaxSeq != 4 {
		t.Fatalf("MaxSeq = %d, want 4", stats.MaxSeq)
	}
	ids := []string{recs[0].ID, recs[1].ID}
	if ids[0] != "j000001" || ids[1] != "j000004" {
		t.Fatalf("live IDs = %v, want [j000001 j000004]", ids)
	}
	if string(recs[0].Spec) != `{"scenarios":[1]}` || recs[0].Kind != "jobs" || recs[0].Priority != "interactive" {
		t.Fatalf("record did not round-trip: %+v", recs[0])
	}
}

// TestJournalTornLine pins crash tolerance: a torn final line (the
// residue of dying mid-append) is skipped and counted, and everything
// before it replays.
func TestJournalTornLine(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord(opSubmit, "j000001", 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	names, err := segmentNames(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("segments: %v %v", names, err)
	}
	seg := filepath.Join(dir, names[len(names)-1])
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","id":"j0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, stats, err := openJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if stats.CorruptLines != 1 {
		t.Fatalf("CorruptLines = %d, want 1", stats.CorruptLines)
	}
	if len(recs) != 1 || recs[0].ID != "j000001" {
		t.Fatalf("live records = %+v", recs)
	}
}

// TestJournalTerminalWithoutSubmit pins compaction overlap handling: a
// terminal record whose submit was already compacted away is ignored,
// and a submit arriving after its own terminal (out-of-order segments)
// stays dead.
func TestJournalTerminalWithoutSubmit(t *testing.T) {
	dir := t.TempDir()
	// Hand-write a segment: terminal for an unknown ID, then a terminal
	// BEFORE its own submit.
	lines := []journalRecord{
		{Op: opDone, ID: "j000009", At: time.Now().UTC()},
		{Op: opCanceled, ID: "j000002", At: time.Now().UTC()},
		testRecord(opSubmit, "j000001", 1),
		testRecord(opSubmit, "j000002", 2),
	}
	var sb strings.Builder
	for _, rec := range lines {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(journalSegPattern, 1)), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	j, recs, _, err := openJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != 1 || recs[0].ID != "j000001" {
		t.Fatalf("live records = %+v, want only j000001", recs)
	}
}

// TestJournalCompaction pins the size bound: with a tiny segment limit
// and a churn of submit+done pairs, old segments are deleted and the
// directory never accumulates history — the journal's size tracks the
// live set, not the submission count.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := openJournal(dir, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 1; i <= 50; i++ {
		id := fmt.Sprintf("j%06d", i)
		if err := j.Append(testRecord(opSubmit, id, i)); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(journalRecord{Op: opDone, ID: id, At: time.Now().UTC()}); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compactions despite churn far beyond the segment bound")
	}
	if st.LiveTasks != 0 {
		t.Fatalf("LiveTasks = %d, want 0", st.LiveTasks)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("segments after churn = %v, want exactly one", names)
	}
	info, err := os.Stat(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	// The active segment holds at most the records since the last
	// compaction: comfortably under a few multiples of the bound.
	if info.Size() > 2048 {
		t.Fatalf("active segment is %d bytes; compaction is not bounding it", info.Size())
	}

	// Reopening finds nothing live and one fresh segment.
	j.Close()
	j2, recs, stats, err := openJournal(dir, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 0 || stats.LiveSubmits != 0 {
		t.Fatalf("live after full churn = %v %+v", recs, stats)
	}
	if stats.MaxSeq != 50 {
		t.Fatalf("MaxSeq = %d, want 50 (terminal records must not erase the sequence floor)", stats.MaxSeq)
	}
}
