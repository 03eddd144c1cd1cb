package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzParseSpec fuzzes the strict job-spec wire-format decoder (the same
// decode the submission endpoint applies): any input that decodes must
// normalize to a stable fixed point — decode, Normalized, encode, decode
// again, Normalized again must reproduce the same bytes and the same
// content hash — and nothing may panic, including Plan on valid specs.
func FuzzParseSpec(f *testing.F) {
	// Seed the corpus from the golden wire-format fixture (its first JSON
	// value; the trailing hash line is ignored by the decoder) plus edge
	// shapes.
	if b, err := os.ReadFile(filepath.Join("testdata", "jobspec.golden")); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"fault":{},"interventions":{}}`))
	f.Add([]byte(`{"scenarios":[4,1,4],"gaps":[230,60,230],"reps":2,"fault":{},"interventions":{"driver":true}}`))
	f.Add([]byte(`{"reps":100001,"fault":{},"interventions":{}}`))
	f.Add([]byte(`{"gaps":[-1],"fault":{},"interventions":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return // not a spec; only panics are failures
		}
		n := spec.Normalized()
		if err := n.Validate(); err != nil {
			return // invalid specs just have to fail cleanly
		}
		h1, err := n.Hash()
		if err != nil {
			t.Fatalf("hashing a valid normalized spec: %v", err)
		}
		b1, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("encoding a valid normalized spec: %v", err)
		}
		spec2, err := DecodeSpec(b1)
		if err != nil {
			t.Fatalf("round-trip decode of %s: %v", b1, err)
		}
		n2 := spec2.Normalized()
		b2, err := json.Marshal(n2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Normalized is not a fixed point:\n%s\nvs\n%s", b1, b2)
		}
		h2, err := n2.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("round-trip changed the content hash: %s vs %s", h1, h2)
		}
	})
}

// FuzzJournalReplay writes arbitrary bytes as a journal segment and
// replays it (openJournal: replay, then compaction into a fresh
// segment). Replay must never panic. A line that does not decode as a
// journal record — a torn tail, garbage — is counted in CorruptLines
// and never recovered; every recovered record is a submit whose line
// decoded. Reopening the compacted journal must give back the same
// live set with nothing corrupt.
func FuzzJournalReplay(f *testing.F) {
	// A real segment, written through Append.
	dir := f.TempDir()
	j, _, _, err := openJournal(dir, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	spec := json.RawMessage(`{"scenarios":[1],"gaps":[60],"reps":1,"fault":{},"interventions":{"driver":true}}`)
	at := time.Date(2026, 10, 17, 8, 0, 0, 0, time.UTC)
	for _, rec := range []journalRecord{
		{Op: opSubmit, ID: "j000001-0a1b2c3d", Seq: 1, Kind: "jobs", Priority: "interactive", Spec: spec, At: at},
		{Op: opSubmit, ID: "r000002-1b2c3d4e", Seq: 2, Kind: "reports", Priority: "bulk", Spec: spec, At: at},
		{Op: opDone, ID: "j000001-0a1b2c3d", At: at},
		{Op: opSubmit, ID: "j000003-2c3d4e5f", Seq: 3, Kind: "jobs", Priority: "interactive", Spec: spec, At: at},
		{Op: opCanceled, ID: "j000003-2c3d4e5f", At: at},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	names, err := segmentNames(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(parentJournalSegment))
	f.Add([]byte(parentJournalSegment[:len(parentJournalSegment)/2])) // torn mid-line
	f.Add([]byte("{\"op\":\"seq\",\"id\":\"\",\"seq\":7,\"at\":\"0001-01-01T00:00:00Z\"}\n\n\x00\xff\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(journalSegPattern, 1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, stats, err := openJournal(dir, 0, nil)
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		j.Close()

		// Account for every line the way the scanner splits them.
		undecodable, lines := 0, 0
		decodedSubmits := make(map[string]bool)
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSuffix(line, []byte("\r"))
			if len(line) == 0 {
				continue
			}
			lines++
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				undecodable++
				continue
			}
			if rec.Op == opSubmit && rec.ID != "" {
				decodedSubmits[rec.ID] = true
			}
		}
		if stats.CorruptLines < undecodable || stats.CorruptLines > lines {
			t.Fatalf("CorruptLines = %d, want between %d undecodable and %d lines", stats.CorruptLines, undecodable, lines)
		}
		if len(recs) != stats.LiveSubmits {
			t.Fatalf("recovered %d records, LiveSubmits = %d", len(recs), stats.LiveSubmits)
		}
		for _, rec := range recs {
			if rec.Op != opSubmit || !decodedSubmits[rec.ID] {
				t.Fatalf("recovered %+v, which no decoded submit line carries", rec)
			}
		}

		again, stats2, _, err := replaySegments(dir)
		if err != nil {
			t.Fatalf("replaying the compacted journal: %v", err)
		}
		if stats2.CorruptLines != 0 || stats2.MaxSeq != stats.MaxSeq || len(again) != len(recs) {
			t.Fatalf("compacted replay = %+v (%d live), first replay = %+v (%d live)",
				stats2, len(again), stats, len(recs))
		}
		for i := range recs {
			if again[i].ID != recs[i].ID {
				t.Fatalf("compacted replay order: %s at %d, want %s", again[i].ID, i, recs[i].ID)
			}
		}
	})
}
