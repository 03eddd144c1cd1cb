package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestSoleRunServeByteIdentity pins the zero-copy warm path: a
// single-run job's results endpoint, serving the cache's canonical
// bytes through serveSoleRun, must produce exactly the bytes the
// ordinary Wire+marshal path produces. Any divergence would break the
// byte-determinism contract (same spec -> identical result bytes,
// regardless of cache warmth or serve path).
func TestSoleRunServeByteIdentity(t *testing.T) {
	d := newTestDispatcher(t, Config{Workers: 2, CacheDir: t.TempDir()})
	ts := httptest.NewServer(NewServer(d))
	defer ts.Close()

	spec := smallSpec() // 1 scenario x 1 gap x 1 rep: a sole-run job
	v, code := postJob(t, ts, spec)
	if code != 202 {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, ts, v.ID)

	result, hash, kind, sole, ok, err := d.taskResult(v.ID)
	if !ok || err != nil {
		t.Fatalf("taskResult: %v %v", ok, err)
	}
	if sole == nil {
		t.Fatal("single-run job prepared without a SoleRun ref")
	}
	want, merr := json.Marshal(kind.Wire(hash, result))
	if merr != nil {
		t.Fatal(merr)
	}
	want = append(want, '\n')

	// The warm path, invoked directly: it must engage (bytes resident —
	// the run was just executed and Put) and match the marshal path.
	srv := NewServer(d)
	rec := httptest.NewRecorder()
	if !srv.serveSoleRun(rec, hash, sole, result) {
		t.Fatal("serveSoleRun refused a resident sole-run result")
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("warm serve diverged from marshal path:\nwarm    %s\nmarshal %s", rec.Body.Bytes(), want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("warm serve Content-Type = %q", ct)
	}

	// And the real route (whichever path it took) serves those bytes.
	raw, code := get(t, ts, "/v1/tasks/"+v.ID+"/results")
	if code != 200 || !bytes.Equal(raw, want) {
		t.Fatalf("results route status %d:\ngot  %s\nwant %s", code, raw, want)
	}

	// A multi-run spec never gets a sole-run ref.
	multi := smallSpec()
	multi.Reps = 2
	v2, _ := postJob(t, ts, multi)
	waitDone(t, ts, v2.ID)
	if _, _, _, sole2, ok, err := d.taskResult(v2.ID); !ok || err != nil || sole2 != nil {
		t.Fatalf("multi-run job sole ref = %v (ok=%v err=%v), want nil", sole2, ok, err)
	}
}
