package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestSoleRunServeByteIdentity pins the byte-determinism contract for a
// single-run job on the disk-backed cache: the results endpoint serves
// exactly json.Marshal(kind.Wire(...)) plus a newline as
// application/json, both when the run was just executed and when a
// restarted daemon serves it from the segment store.
func TestSoleRunServeByteIdentity(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec() // 1 scenario x 1 gap x 1 rep: a single-run job

	results := func(ts *httptest.Server, id string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/tasks/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("results status %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("results Content-Type = %q", ct)
		}
		return body
	}

	// Cold: the run executes and is written to the segment store.
	d1 := newTestDispatcher(t, Config{Workers: 2, CacheDir: dir})
	ts1 := httptest.NewServer(NewServer(d1))
	v1, code := postJob(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if done := waitDone(t, ts1, v1.ID); done.Status != StatusDone || done.TotalRuns != 1 {
		t.Fatalf("cold job = %+v", done)
	}
	cold := results(ts1, v1.ID)
	result, hash, kind, ok, err := d1.taskResult(v1.ID)
	if !ok || err != nil {
		t.Fatalf("taskResult: ok=%v err=%v", ok, err)
	}
	want, err := json.Marshal(kind.Wire(hash, result))
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(cold, want) {
		t.Fatalf("cold results diverge from the Wire marshal:\ngot  %s\nwant %s", cold, want)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Warm: a restarted daemon on the same store serves the run from disk.
	d2 := newTestDispatcher(t, Config{Workers: 2, CacheDir: dir})
	ts2 := httptest.NewServer(NewServer(d2))
	defer ts2.Close()
	v2, code := postJob(t, ts2, spec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	if done := waitDone(t, ts2, v2.ID); done.Status != StatusDone || done.CacheHits != 1 {
		t.Fatalf("warm job = %+v, want done with 1 cache hit", done)
	}
	if warm := results(ts2, v2.ID); !bytes.Equal(warm, want) {
		t.Fatalf("cache-served results diverge from cold:\ngot  %s\nwant %s", warm, want)
	}
	var health HealthResponse
	b, _ := get(t, ts2, "/healthz")
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatal(err)
	}
	if health.Cache.DiskHits != 1 {
		t.Errorf("restarted daemon disk hits = %d, want 1", health.Cache.DiskHits)
	}
}
