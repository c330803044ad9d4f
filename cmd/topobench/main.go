// Command topobench is the end-to-end benchmark of topodb as a served,
// editable database. It serves seeded instances through the topodbd
// handler on a loopback listener, drives one of four workloads over HTTP
// from at most two client connections, checks every answer against an
// exact oracle, and prints every metric by name with its unit; the last
// line of standard output is the result as one JSON object.
//
// Usage, from the repository root:
//
//	bash cmd/topobench/run.sh --workload metro_edit --seed 1 --seconds 25 --trace 0
//
// or from this directory:
//
//	go run . -seed 1                   # every workload, each in a child process
//	go run . -workload scatter_read    # one workload, in this process
//	go run . -runs 3                   # medians, quartiles and spreads
//	go run . -trace spans.json         # per-layer numbers and the spans file
//
// See README.md for the workloads, the metrics and how to read the spans.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer name the metrics of the result line, untraced and
// traced. BENCHMARK.json lists the same names (checked by the tests).
var (
	endToEnd = []string{"setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s", "alloc_mb_per_op", "live_heap_mb"}
	perLayer = []string{
		"serve.http_ms", "serve.overhead_ms", "topodb.warm_query_ms", "topodb.warm_relate_us",
		"folang.parse_us", "folang.eval_ms", "folang.eval_mb", "fourint.relate_us",
		"arrange.cold_build_ms", "folang.universe_cold_ms", "trace.coverage",
		"topodb.incremental_derivations", "topodb.cold_derivations",
	}
)

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process; empty runs every workload, each in its own child process")
		seed    = flag.Int64("seed", 1, "input seed; seed 2 is held out for confirming a claimed gain")
		seconds = flag.Float64("seconds", 25, "how long one run measures")
		trace   = flag.String("trace", "", "make a traced run: replay the op stream through each layer, report per-layer metrics and write the spans to this file")
		runs    = flag.Int("runs", 1, "run each workload this many times and report median, quartiles and spread per metric")
	)
	flag.Parse()
	if *name != "" && *runs == 1 {
		w, ok := lookup(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "topobench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		rep, err := runWorkload(os.Stdout, w, *seed, *seconds, *trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "topobench:", err)
			os.Exit(1)
		}
		if !rep.Correct {
			os.Exit(1)
		}
		return
	}
	names := []string{*name}
	if *name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if err := parent(names, *seed, *seconds, *trace, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
}

// runWorkload makes one run of w in this process, prints its table and
// result line to out, and returns the result.
func runWorkload(out io.Writer, w workload, seed int64, seconds float64, tracePath string) (report, error) {
	h := newHarness()
	defer h.close()
	budget := time.Duration(seconds * float64(time.Second))
	var t table
	var err error
	names := endToEnd
	if tracePath == "" {
		t, err = runE2E(out, h, w, seed, budget)
	} else {
		names = perLayer
		t, err = runTraced(out, h, w, seed, budget, tracePath)
	}
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", w.name, err)
	}
	rep := report{
		Correct:   h.wrong.Load() == 0,
		Attempted: h.attempted.Load(),
		Failed:    h.failed.Load(),
		Metrics:   t.pick(names),
	}
	t.add("failed_frac", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio")
	t.add("wrong_answers", float64(h.wrong.Load()), "count")
	fmt.Fprintf(out, "topobench %s seed=%d seconds=%g traced=%v\n", w.name, seed, seconds, tracePath != "")
	t.write(out)
	for _, n := range h.notes {
		fmt.Fprintln(out, "note:", n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return rep, nil
}

// parent runs each named workload runs times, each run in a child process
// of this executable so that heap, GC pacing and the process-global
// derivation counters start fresh. With runs > 1 it then reports, per
// (workload, metric), the median, the quartiles and the spread
// (interquartile range over median), flagging spreads past the metric's
// bound in BENCHMARK.json.
func parent(names []string, seed int64, seconds float64, trace string, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	results := map[string][]report{}
	failed := false
	for _, name := range names {
		if _, ok := lookup(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		for r := 0; r < runs; r++ {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
			if trace != "" {
				args = append(args, "-trace", spansPath(trace, name, r, runs))
			}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &buf), os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "topobench: %s run %d: %v\n", name, r+1, err)
				failed = true
			}
			var rep report
			if err := json.Unmarshal(lastLine(buf.Bytes()), &rep); err == nil {
				results[name] = append(results[name], rep)
			}
		}
	}
	if runs > 1 {
		if err := summarize(os.Stdout, names, results); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("some runs failed")
	}
	return nil
}

// spansPath gives each child of a multi-run its own spans file.
func spansPath(path, name string, run, runs int) string {
	ext := filepath.Ext(path)
	base := strings.TrimSuffix(path, ext) + "." + name
	if runs > 1 {
		base += "." + strconv.Itoa(run+1)
	}
	return base + ext
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// bound is one metric's entry in BENCHMARK.json.
type bound struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the repository root, found
// from either the root or this directory.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &f, nil
	}
	return nil, firstErr
}

// summarize prints the repeat-mode table.
func summarize(w io.Writer, names []string, results map[string][]report) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, b := range bf.EndToEnd {
		bounds[b.Name] = b.Bound
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "\n%-16s %-32s %5s %14s %14s %14s %8s %6s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		reps := results[name]
		if len(reps) == 0 {
			continue
		}
		metrics := make([]string, 0, len(reps[0].Metrics))
		for m := range reps[0].Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			var xs []float64
			for _, rep := range reps {
				if v, ok := rep.Metrics[m]; ok {
					xs = append(xs, v.Value)
				}
			}
			q1, med, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag, b := "", "-"
			if bd, ok := bounds[m]; ok {
				b = strconv.FormatFloat(bd, 'g', -1, 64)
				if spread > bd {
					flag = "  SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Fprintf(bw, "%-16s %-32s %5d %14.4f %14.4f %14.4f %8.4f %6s%s\n", name, m, len(xs), q1, med, q3, spread, b, flag)
		}
	}
	return bw.Flush()
}

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(xs, n=4) (exclusive) and
// statistics.median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := sorted(xs)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), med, q(3)
}
