package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"topodb/internal/arrange"
)

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks the result line against BENCHMARK.json: every metric it names is
// emitted with its unit, no operation failed, every answer was right, and
// the spans file parses.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	// The tiny metro instances stay on the sharded path.
	defer arrange.SetShardThreshold(arrange.SetShardThreshold(64))
	for _, w := range workloads {
		if w.side > 0 {
			w.n, w.perEpisode = 100, 5
		} else {
			w.n = 48
		}
		for _, traced := range []bool{false, true} {
			want, path := bf.EndToEnd, ""
			if traced {
				want, path = bf.PerLayer, filepath.Join(t.TempDir(), "spans.json")
			}
			var out bytes.Buffer
			rep, err := runWorkload(&out, w, 1, 0.5, path)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.name, traced, rep.Correct, rep.Failed, rep.Attempted, out.String())
			}
			var last report
			if err := json.Unmarshal(lastLine(out.Bytes()), &last); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.name, traced, err)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(last.Metrics), len(want))
			}
			for _, b := range want {
				if m, ok := last.Metrics[b.Name]; !ok || m.Unit != b.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, b.Name, m, b.Unit)
				}
			}
			if traced {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct{ Spans []span }
				if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
					t.Errorf("%s: spans file: %d spans, %v", w.name, len(doc.Spans), err)
				}
			}
		}
	}
}

// TestQuartiles pins the repeat mode's quartiles to Python's
// statistics.quantiles(xs, n=4) and statistics.median.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
