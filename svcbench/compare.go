package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// bound is one metric's regression bound: the share of the baseline
// median it may worsen by, and which direction is worse.
type bound struct {
	share       float64
	higherIsBad bool
}

func loadBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{share: m.Bound, higherIsBad: m.Better == "lower"}
	}
	return out, nil
}

// readRecords collects the {"record": ...} lines of a file of run
// output; other lines are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			Record *record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Record != nil {
			out = append(out, *line.Record)
		}
	}
	return out, sc.Err()
}

// verdict classifies the move of one metric from side a to side b.
type verdict struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	na, nb           int
	change           float64 // (median b - median a) / median a
	flag             string  // "WORSE", "better", "unresolved" or ""
}

// judge compares two samples of one metric against its bound. A move
// past the bound in the worse direction is flagged WORSE; one past it
// in the better direction, better. When either side's own spread is
// wider than the bound and no flag applies, the metric is unresolved.
func judge(a, b []float64, bd bound, hasBound bool) verdict {
	var v verdict
	v.na, v.nb = len(a), len(b)
	v.a[0], v.a[1], v.a[2] = quartiles(a)
	v.b[0], v.b[1], v.b[2] = quartiles(b)
	if v.a[1] != 0 {
		v.change = (v.b[1] - v.a[1]) / math.Abs(v.a[1])
	}
	if !hasBound {
		return v
	}
	worse := v.change
	if !bd.higherIsBad {
		worse = -worse
	}
	switch {
	case worse > bd.share:
		v.flag = "WORSE"
	case -worse > bd.share:
		v.flag = "better"
	case spread(a) > bd.share || spread(b) > bd.share:
		v.flag = "unresolved"
	}
	return v
}

// compare prints, for each workload and metric present on both sides,
// both sides' quartiles and the flagged moves, then checks that records
// of one workload and seed carry the same cold digest. It reports
// whether anything got worse or a digest differs.
func compare(w io.Writer, before, after, benchJSON string) (bool, error) {
	ra, err := readRecords(before)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(after)
	if err != nil {
		return false, err
	}
	bounds, err := loadBounds(benchJSON)
	if err != nil {
		fmt.Fprintf(w, "no bounds (%v): nothing is flagged\n", err)
		bounds = map[string]bound{}
	}
	type key struct{ workload, metric string }
	collect := func(rs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range rs {
			for m, v := range r.Metrics {
				out[key{r.Workload, m}] = append(out[key{r.Workload, m}], v)
			}
			for m, v := range r.Extra {
				out[key{r.Workload, m}] = append(out[key{r.Workload, m}], v)
			}
		}
		return out
	}
	sa, sb := collect(ra), collect(rb)
	var keys []key
	for k := range sa {
		if _, ok := sb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	bad := false
	fmt.Fprintf(w, "%-16s %-32s %-34s %-34s %8s  %s\n", "workload", "metric", "before median [q1, q3] (n)", "after median [q1, q3] (n)", "change", "flag")
	for _, k := range keys {
		bd, has := bounds[k.metric]
		v := judge(sa[k], sb[k], bd, has)
		if v.flag == "WORSE" {
			bad = true
		}
		fmt.Fprintf(w, "%-16s %-32s %-34s %-34s %+7.1f%%  %s\n", k.workload, k.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", v.a[1], v.a[0], v.a[2], v.na),
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", v.b[1], v.b[0], v.b[2], v.nb),
			100*v.change, v.flag)
	}
	digests := map[string]string{}
	for _, r := range append(append([]record(nil), ra...), rb...) {
		if r.Digest == "" {
			continue
		}
		id := fmt.Sprintf("%s seed %d", r.Workload, r.Stamp.Seed)
		if prev, ok := digests[id]; ok && prev != r.Digest {
			fmt.Fprintf(w, "DIGEST MISMATCH: %s: %s vs %s\n", id, prev, r.Digest)
			bad = true
		}
		digests[id] = r.Digest
	}
	return bad, nil
}
