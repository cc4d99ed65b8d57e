package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/body"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vec"
)

// layerMetrics are printed, in this order, by every traced run. A metric a
// workload does not exercise reads 0 with an "n/a" note in the table.
var layerMetrics = []metricSpec{
	{"sim.step_ms_p50", "ms"},
	{"sim.step.samples", "count"},
	{"sim.snapshot_ms", "ms"},
	{"sim.snapshot.samples", "count"},
	{"sim.energy_drift", "ratio"},
	{"integrate.self_ms_per_step", "ms"},
	{"integrate.substeps_per_step", "count"},
	{"integrate.active_fraction", "ratio"},
	{"core.accel_ms_p50", "ms"},
	{"core.evals", "count"},
	{"core.evals_per_step", "count"},
	{"core.jerk_evals_i", "count"},
	{"core.jerk_evals_j", "count"},
	{"core.host_build_ms", "ms"},
	{"core.allocs_per_eval", "count"},
	{"core.alloc_bytes_per_eval", "bytes"},
	{"core.interactions_per_eval", "count"},
	{"bh.tree_build_ms", "ms"},
	{"bh.walk_build_ms", "ms"},
	{"bh.walks_per_eval", "count"},
	{"bh.list_len_mean", "count"},
	{"bh.interactions_per_eval", "count"},
	{"gpusim.emulate_ms_per_eval", "ms"},
	{"gpusim.launches", "count"},
	{"gpusim.launches_per_step", "count"},
	{"gpusim.ms_per_launch", "ms"},
	{"gpusim.work_items_per_eval", "count"},
	{"gpusim.barriers_per_eval", "count"},
	{"gpusim.ns_per_work_item", "ns"},
	{"gpusim.ns_per_interaction", "ns"},
	{"gpusim.flops_per_eval", "count"},
	{"gpusim.global_bytes_per_eval", "bytes"},
	{"gpusim.lds_bytes_per_eval", "bytes"},
	{"cl.transfer_bytes_per_eval", "bytes"},
	{"pipeline.modelled_ms_per_eval", "ms"},
	{"serve.jobs", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.stream_lag_ms_p50", "ms"},
	{"serve.scrapes", "count"},
	{"serve.scrape_ms_p50", "ms"},
	{"serve.records_per_job", "count"},
	{"serve.stream_bytes_per_job", "bytes"},
	{"serve.engines_cached", "count"},
	{"serve.engine_slots", "count"},
	{"serve.retries", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_retained_mb", "MB"},
	{"obs.spans", "count"},
	{"obs.trace_overhead_frac", "ratio"},
	{"error_rate", "ratio"},
}

// layers collects a traced run's per-layer values by name.
type layers struct {
	value map[string]float64
	note  map[string]string
}

func newLayers() *layers {
	return &layers{value: map[string]float64{}, note: map[string]string{}}
}

func (l *layers) set(name string, v float64, note string) {
	l.value[name] = v
	if note != "" {
		l.note[name] = note
	}
}

// metrics returns every per-layer metric in declaration order; the ones the
// workload did not set read 0.
func (l *layers) metrics() []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, spec := range layerMetrics {
		v, ok := l.value[spec.name]
		note := l.note[spec.name]
		if !ok {
			note = "n/a on this workload"
		}
		out = append(out, metric{name: spec.name, value: v, unit: spec.unit, note: note})
	}
	return out
}

// evalStats accumulates what the engine reported for each force evaluation
// the benchmark observed: counts from RunProfile and the gpusim launch
// results, and the allocations made during the call.
type evalStats struct {
	evals         int
	wallMS        []float64
	launches      int64
	workItems     int64
	barriers      int64
	flops         int64
	globalBytes   int64
	ldsBytes      int64
	transferBytes int64
	interactions  int64
	modelledMS    float64
	hostBuildMS   float64
	mallocs       uint64
	allocBytes    uint64
	jerkI, jerkJ  int
}

func (st *evalStats) add(prof *core.RunProfile, wall time.Duration, mallocs, bytes uint64) {
	st.evals++
	st.wallMS = append(st.wallMS, ms(wall))
	st.mallocs += mallocs
	st.allocBytes += bytes
	if prof == nil {
		return
	}
	st.interactions += prof.Interactions
	st.transferBytes += prof.Profile.TransferBytes
	st.hostBuildMS += prof.HostBuildSeconds * 1e3
	if prof.Schedule != nil {
		st.modelledMS += prof.Schedule.MakespanSeconds() * 1e3
	}
	switch prof.Plan {
	case "jerk:i-parallel":
		st.jerkI++
	case "jerk:j-parallel":
		st.jerkJ++
	}
	for _, r := range prof.Launches {
		st.launches++
		st.workItems += int64(r.Params.Global)
		for _, g := range r.Groups {
			st.barriers += g.Barriers
			st.flops += g.Flops
			st.globalBytes += g.BytesCoalesced + g.BytesScattered
			st.ldsBytes += g.LDSBytes
		}
	}
}

// tracedEngine wraps a core.Engine for the traced half of a run: each force
// evaluation the simulation makes is timed under a "bench" span, and its
// RunProfile is folded into the recorder. Every other method — and so every
// capability sim.Caps probes for — is the embedded engine's own; sim.RunContext
// evaluates through AccelContext whenever the engine has it.
type tracedEngine struct {
	*core.Engine
	tr *obs.Tracer
	st *evalStats
}

// AccelContext implements sim.ContextEngine.
func (t *tracedEngine) AccelContext(ctx context.Context, s *body.System) (int64, error) {
	return t.measure(t.tr.StartCtx(ctx, "core.Engine.AccelContext", "bench"), func() (int64, error) { return t.Engine.AccelContext(ctx, s) })
}

// AccelJerk implements sim.JerkEngine.
func (t *tracedEngine) AccelJerk(ctx context.Context, s *body.System, active []int, jerk []vec.V3) (int64, error) {
	return t.measure(t.tr.StartCtx(ctx, "core.Engine.AccelJerk", "bench"), func() (int64, error) { return t.Engine.AccelJerk(ctx, s, active, jerk) })
}

// measure runs one evaluation under the already-open span sp.
func (t *tracedEngine) measure(sp *obs.Span, call func() (int64, error)) (int64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n, err := call()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	sp.End()
	if err == nil {
		t.st.add(t.Engine.LastProfile, wall, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	}
	return n, err
}

// span is a finished wall-clock span in the benchmark's own form.
type span struct {
	name, cat    string
	iv           interval
	id, parentID string
	args         map[string]any
}

// wallSpans returns the tracer's wall-clock spans sorted by start time.
func wallSpans(tr *obs.Tracer) []span {
	var out []span
	for _, r := range tr.Spans() {
		if r.Domain != obs.DomainWall {
			continue
		}
		out = append(out, span{
			name: r.Name, cat: r.Category,
			iv: interval{r.StartUS, r.StartUS + r.DurUS},
			id: r.SpanID, parentID: r.ParentID, args: r.Args,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].iv.start < out[j].iv.start })
	return out
}

// filter returns the spans (in order) for which keep is true.
func filter(spans []span, keep func(span) bool) []span {
	var out []span
	for _, s := range spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func named(name, cat string) func(span) bool {
	return func(s span) bool { return s.name == name && s.cat == cat }
}

// containTolUS absorbs float rounding in the containment test.
const containTolUS = 1e-3

// within returns the intervals of the candidates (sorted by start) that lie
// entirely inside parent: interval containment, the way self time is
// attributed when spans carry no parent links.
func within(parent interval, cands []span) []interval {
	i := sort.Search(len(cands), func(k int) bool { return cands[k].iv.start >= parent.start-containTolUS })
	var out []interval
	for ; i < len(cands) && cands[i].iv.start <= parent.end; i++ {
		if cands[i].iv.end <= parent.end+containTolUS {
			out = append(out, cands[i].iv)
		}
	}
	return out
}

// durationsMS returns the spans' durations in milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.iv.length() / 1e3
	}
	return out
}

// sumMS returns the spans' total duration in milliseconds.
func sumMS(spans []span) float64 {
	var t float64
	for _, s := range spans {
		t += s.iv.length() / 1e3
	}
	return t
}

// writeSpanFile writes the tracer's wall-clock spans as a Chrome trace.
func writeSpanFile(dir, workload string, seed uint64, tr *obs.Tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var events []obs.TraceEvent
	for _, ev := range tr.TraceEvents() {
		if ev.PID == obs.PIDHost {
			events = append(events, ev)
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChromeTrace(f, map[string]any{"workload": workload, "seed": seed}, events); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// evalLayers fills the core, bh, gpusim, cl and pipeline metrics from the
// recorded evaluations and the spans of the same interval. steps is the
// number of outer integrator steps the evaluations served; nBodies and
// walkCap describe the BH plan (walkCap 0 for PP plans).
func evalLayers(l *layers, st *evalStats, spans []span, steps, nBodies, walkCap int) {
	if st.evals == 0 {
		return
	}
	evals := float64(st.evals)
	l.set("core.accel_ms_p50", median(st.wallMS), percentileNote(st.evals, 500))
	l.set("core.evals", evals, "")
	if steps > 0 {
		l.set("core.evals_per_step", evals/float64(steps), fmt.Sprintf("%d evals / %d steps", st.evals, steps))
		l.set("gpusim.launches_per_step", float64(st.launches)/float64(steps), fmt.Sprintf("%d launches / %d steps", st.launches, steps))
	}
	l.set("core.jerk_evals_i", float64(st.jerkI), "i-parallel picks of the jerk selector")
	l.set("core.jerk_evals_j", float64(st.jerkJ), "j-parallel picks of the jerk selector")
	l.set("core.host_build_ms", st.hostBuildMS/evals, "RunProfile.HostBuildSeconds per eval")
	l.set("core.allocs_per_eval", float64(st.mallocs)/evals, fmt.Sprintf("base %d evals", st.evals))
	l.set("core.alloc_bytes_per_eval", float64(st.allocBytes)/evals, fmt.Sprintf("base %d evals", st.evals))
	l.set("core.interactions_per_eval", float64(st.interactions)/evals, "")

	// The plan's "accel" span (category plan or jerk) minus its host-data
	// child is the device emulation: kernels run on gpusim plus the cl
	// queue's bookkeeping.
	hostData := filter(spans, named("host data build", "host"))
	var emulateMS float64
	for _, s := range filter(spans, func(s span) bool { return s.name == "accel" && (s.cat == "plan" || s.cat == "jerk") }) {
		emulateMS += selfTime(s.iv, within(s.iv, hostData)) / 1e3
	}
	l.set("gpusim.emulate_ms_per_eval", emulateMS/evals, "plan accel self time, host data build excluded")
	l.set("gpusim.launches", float64(st.launches), "")
	if st.launches > 0 {
		l.set("gpusim.ms_per_launch", emulateMS/float64(st.launches), fmt.Sprintf("base %d launches", st.launches))
	}
	l.set("gpusim.work_items_per_eval", float64(st.workItems)/evals, "")
	l.set("gpusim.barriers_per_eval", float64(st.barriers)/evals, "")
	if st.workItems > 0 {
		l.set("gpusim.ns_per_work_item", emulateMS*1e6/float64(st.workItems), fmt.Sprintf("base %d work-items", st.workItems))
	}
	if st.interactions > 0 {
		l.set("gpusim.ns_per_interaction", emulateMS*1e6/float64(st.interactions), fmt.Sprintf("base %d interactions", st.interactions))
	}
	l.set("gpusim.flops_per_eval", float64(st.flops)/evals, "computed by the cost model")
	l.set("gpusim.global_bytes_per_eval", float64(st.globalBytes)/evals, "computed by the cost model")
	l.set("gpusim.lds_bytes_per_eval", float64(st.ldsBytes)/evals, "computed by the cost model")
	l.set("cl.transfer_bytes_per_eval", float64(st.transferBytes)/evals, "computed by the cost model")
	l.set("pipeline.modelled_ms_per_eval", st.modelledMS/evals, "executed schedule makespan")

	if walkCap > 0 {
		l.set("bh.tree_build_ms", sumMS(filter(spans, named("tree build", "host")))/evals, fmt.Sprintf("base %d evals", st.evals))
		l.set("bh.walk_build_ms", sumMS(filter(spans, named("walk/list build", "host")))/evals, fmt.Sprintf("base %d evals", st.evals))
		l.set("bh.walks_per_eval", float64((nBodies+walkCap-1)/walkCap), fmt.Sprintf("%d bodies / %d per walk", nBodies, walkCap))
		l.set("bh.list_len_mean", float64(st.interactions)/evals/float64(nBodies), "interactions per body per eval")
		l.set("bh.interactions_per_eval", float64(st.interactions)/evals, "")
	}
}

// readFloat reads one float64 metric from runtime/metrics (0 if absent).
func readFloat(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// gcCPU reads the cumulative GC and total CPU seconds from runtime/metrics.
func gcCPU() (gc, total float64) {
	return readFloat("/cpu/classes/gc/total:cpu-seconds"), readFloat("/cpu/classes/total:cpu-seconds")
}
