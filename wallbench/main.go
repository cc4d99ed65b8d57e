// Command wallbench measures the wall-clock cost of the N-body simulator end
// to end, through the entry points its users call: sim.RunContext over
// core.NewEngineByName, and an in-process nbodyd (serve.NewService +
// serve.NewServer on a loopback listener). It checks the outputs it times
// and prints one JSON result line last.
//
//	go build -o wallbench . && ./wallbench --workload jw-plummer-8k --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the run into an
// untraced and a traced half and prints the per-layer metrics, writing the
// spans to a Chrome trace file. README.md maps every metric to its layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number. note carries its sample count or base for
// the human-readable table; the JSON line holds only value and unit.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
}

// result is one workload run: its operation tally, the reasons of any
// failures, and the metrics of the requested kind.
type result struct {
	ops      tally
	failures []string
	metrics  []metric
	spanFile string
}

// check counts one correctness check or operation, keeping the reason of a
// failure.
func (r *result) check(ok bool, format string, args ...any) bool {
	if !r.ops.record(ok) {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// workload is one named input set and the function that runs it.
type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"jw-plummer-8k", runJW},
	{"hermite-plummer-6k", runHermite},
	{"nbodyd-mixed", runNbodyd},
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// e2eMetrics are printed, in this order, by every untraced run.
var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"modelled_gflops", "GFLOPS"},
	{"jobs_per_s", "1/s"},
	{"job_latency_ms_p50", "ms"},
	{"job_latency_ms_p90", "ms"},
	{"first_record_ms_p50", "ms"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Float64("seconds", 20, "measured wall time per run, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "wallbench"), "directory the span files are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "wallbench: --trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "wallbench: --seconds must be positive\n")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || w.name == *name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "wallbench: unknown workload %q (known: %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// The load shape is fixed at two cores whatever the host has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, outDir: *outDir}
	want := e2eMetrics
	if cfg.trace {
		want = layerMetrics
	}
	var total tally
	combined := map[string]jsonMetric{}
	correct := true
	for _, w := range selected {
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "wallbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := validate(res.metrics, want); err != nil {
			fmt.Fprintf(stderr, "wallbench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stdout, w.name, cfg, res)
		for _, f := range res.failures {
			fmt.Fprintf(stderr, "wallbench: %s: FAILED: %s\n", w.name, f)
		}
		total.add(res.ops)
		correct = correct && len(res.failures) == 0 && res.ops.failed == 0
		for _, m := range res.metrics {
			key := m.name
			if len(selected) > 1 {
				key = w.name + "/" + m.name
			}
			combined[key] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(resultLine{Correct: correct, Attempted: total.attempted, Failed: total.failed, Metrics: combined})
	if err != nil {
		fmt.Fprintf(stderr, "wallbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// validate checks that a run produced exactly the wanted metrics, each once,
// with its declared unit and a finite value.
func validate(got []metric, want []metricSpec) error {
	units := make(map[string]string, len(want))
	for _, m := range want {
		units[m.name] = m.unit
	}
	seen := make(map[string]bool, len(got))
	for _, m := range got {
		unit, ok := units[m.name]
		switch {
		case !ok:
			return fmt.Errorf("unexpected metric %q", m.name)
		case seen[m.name]:
			return fmt.Errorf("metric %q reported twice", m.name)
		case unit != m.unit:
			return fmt.Errorf("metric %q in %q, declared %q", m.name, m.unit, unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			return fmt.Errorf("metric %q is %v", m.name, m.value)
		}
		seen[m.name] = true
	}
	for _, m := range want {
		if !seen[m.name] {
			return fmt.Errorf("metric %q missing", m.name)
		}
	}
	return nil
}

// printTable writes the human-readable report of one workload run.
func printTable(w io.Writer, name string, cfg runConfig, res *result) {
	kind := "end-to-end"
	if cfg.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s metrics\n", name, cfg.seed, cfg.seconds, kind)
	fmt.Fprintf(w, "   %-34s %16s  %-8s %s\n", "error_rate", fmt.Sprintf("%.6g", res.ops.rate()), "ratio",
		fmt.Sprintf("%d failed of %d operations", res.ops.failed, res.ops.attempted))
	for _, m := range res.metrics {
		fmt.Fprintf(w, "   %-34s %16s  %-8s %s\n", m.name, fmt.Sprintf("%.6g", m.value), m.unit, m.note)
	}
	if res.spanFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", res.spanFile)
	}
}

// retainedHeapMB collects the heap and returns what stays live, in MiB: the
// memory the program holds at a quiet point (its buffers, arenas, records
// and spans). Transient churn shows in core.alloc_bytes_per_eval.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// countNote formats a sample count for the table.
func countNote(n int) string { return fmt.Sprintf("n=%d", n) }

// percentileNote describes a percentile's sample count and whether it has
// the ten samples beyond it that the reporting rule asks for.
func percentileNote(n, perMille int) string {
	hp, ok := highestPercentile(n)
	top := "none"
	if ok {
		top = fmt.Sprintf("p%g", float64(hp)/10)
	}
	if reportable(n, perMille) {
		return fmt.Sprintf("n=%d (highest reportable: %s)", n, top)
	}
	return fmt.Sprintf("n=%d, fewer than 10 samples beyond p%g (highest reportable: %s)", n, float64(perMille)/10, top)
}
