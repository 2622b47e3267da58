// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against in-process ptaserve workers (and, for fleet, a dist
// coordinator) on loopback, checks every answer, and prints the metrics as
// its last line of standard output:
//
//	{"correct": true, "attempted": 123, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports per-layer metrics from spans the benchmark
// records around its calls into each module.
//
//	go build -o perfbench . && ./perfbench --workload hot --seed 1 --seconds 30 --trace 0
//
// Workloads (see BENCHMARK.json at the repository root for why each exists):
//
//	paper  distinct gap-free Uniform series, ptac c=200, 1 closed-loop client
//	hot    warm cache hits, open loop at a nominal rate, plus a max_rps ladder
//	fleet  dist fan-out over two peered workers with spill directories
//
// It exits 1 when any answer is wrong or refused, 2 when it cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart anchors setup_s: set-up is timed from process start.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints: metrics in print order with a note each,
// plus the verdict fields of the final JSON line.
type report struct {
	names     []string
	metrics   map[string]metric
	notes     map[string]string
	info      []string // printed figures that are not metrics
	Attempted int
	Failed    int
	Errors    []string
	Props     map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}, Props: map[string]any{}}
}

func (r *report) add(name string, v float64, unit, note string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// addInfo records a figure that is printed but kept out of the result line:
// one whose run-to-run spread on a shared machine exceeds any bound a
// metric may have (see p99_ms in bench.go).
func (r *report) addInfo(name string, v float64, unit, note string) {
	r.info = append(r.info, fmt.Sprintf("%-26s %14.4f %-9s %s (informational)", name, v, unit, note))
}

// fail records a failed request; the first few reasons are printed.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool // tiny-scale inputs; set only by the self-tests
	workDir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "paper, hot or fleet")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same requests")
	flag.IntVar(&o.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build/perfbench", "spill directories and span dumps go here")
	flag.Parse()
	os.Exit(run(o, os.Stdout))
}

func run(o options, out io.Writer) int {
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	e := &env{
		cfg:     fullConfig(),
		seed:    o.seed,
		dur:     time.Duration(o.seconds) * time.Second,
		traced:  o.trace == 1,
		tmpRoot: filepath.Join(o.workDir, "tmp"),
		rep:     newReport(),
		out:     out,
	}
	if o.smoke {
		e.cfg = smokeConfig()
	}
	if e.traced {
		e.tr = newTracer()
	}
	runners := map[string]func(*env) error{"paper": runPaper, "hot": runHot, "fleet": runFleet}
	steal0, total0 := cpuTimes()
	runner, ok := runners[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want paper, hot or fleet)\n", o.workload)
		return 2
	}
	if err := runner(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	if e.tr != nil {
		path := filepath.Join(o.workDir, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	e.rep.Props["cpu_steal_share"] = stealShare(steal0, total0)
	return e.rep.print(out, o.workload)
}

// print writes the human-readable lines and the final JSON line, and
// returns the exit code.
func (r *report) print(w io.Writer, workload string) int {
	prov, _ := json.Marshal(provenance())
	fmt.Fprintf(w, "provenance: %s\n", prov)
	props, _ := json.Marshal(r.Props)
	fmt.Fprintf(w, "properties: %s\n", props)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%s %-26s %14.4f %-9s %s\n", workload, n, m.Value, m.Unit, r.notes[n])
	}
	for _, line := range r.info {
		fmt.Fprintf(w, "%s %s\n", workload, line)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	correct := r.Failed == 0 && r.Attempted > 0
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.Attempted, r.Failed, r.metrics}
	line, _ := json.Marshal(out)
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}

// env carries one run's settings and results.
type env struct {
	cfg     config
	seed    int64
	dur     time.Duration
	traced  bool
	tr      *tracer
	tmpRoot string
	rep     *report
	out     io.Writer
}

// frac is a share of the run's measuring time.
func (e *env) frac(f float64) time.Duration { return time.Duration(f * float64(e.dur)) }

// maxSetupReps caps how often repeatSetup builds a set-up.
const maxSetupReps = 25

// repeatSetup runs build at least cfg.SetupReps times and until set-up has
// taken cfg.SetupSeconds in total (at most maxSetupReps times), tearing down
// all but the last result, and reports the median set-up time as setup_s.
// The first repetition is timed from process start. Traced runs set up once.
func repeatSetup[T any](e *env, build func() (T, func(), error)) (T, func(), error) {
	reps, total := e.cfg.SetupReps, 0.0
	if e.traced {
		reps = 1
	}
	var (
		durs     []float64
		val      T
		teardown func()
	)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		v, td, err := build()
		if err != nil {
			return val, nil, err
		}
		durs = append(durs, time.Since(start).Seconds())
		if total += durs[r]; r == reps-1 && !e.traced && total < e.cfg.SetupSeconds && reps < maxSetupReps {
			reps++
		}
		if r < reps-1 {
			td()
			// Collect the torn-down set-up now, so it neither stacks up in
			// peak_rss_mb nor is collected during the next set-up.
			runtime.GC()
			continue
		}
		val, teardown = v, td
	}
	if !e.traced {
		sort.Float64s(durs)
		e.rep.add("setup_s", durs[len(durs)/2], "s", fmt.Sprintf("median of %d set-ups", len(durs)))
	}
	return val, teardown, nil
}
