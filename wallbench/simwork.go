package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/pp"
	"repro/internal/sim"
	"repro/internal/vec"
)

// Physics of both simulation workloads: the paper's Plummer setup.
const (
	simDT    = 0.01
	simEps   = 0.05
	simTheta = 0.6
	// setupRepeats is how many times set-up runs per measurement; setup_s is
	// the median.
	setupRepeats = 21
)

// Correctness bounds on the first force evaluation, as relative RMS error
// (pp.RMSRelError with a 1e-3 floor) against the CPU direct sum. The
// treecode at theta 0.6 approximates; the jerk kernels sum the same pairs as
// the reference in another order, so they agree to float32 rounding.
const (
	jwAccelRMSBound     = 2e-2
	jerkAccelRMSBound   = 1e-4
	jerkJerkRMSBound    = 1e-3
	accelGateErrorFloor = 1e-3
)

// simSpec is one sim.RunContext workload. An episode is one RunContext call
// of episodeSteps outer steps from the seeded initial conditions, with
// snapshots at the start and the end only.
type simSpec struct {
	name         string
	plan         string
	n            int
	integrator   string
	episodeSteps int
	dtMin        float32 // Hermite block-step floor; 0 keeps the default
}

var (
	jwSpec = simSpec{name: "jw-plummer-8k", plan: "jw-parallel", n: 8192, integrator: "leapfrog", episodeSteps: 2}
	// The Hermite hierarchy is floored at dt/8 (three block levels) rather
	// than the default dt/64: with six levels a step's cost depends on the
	// closest pair of the realization, and varied by more than any bound
	// across seeds; with three, every realization fills the same depth.
	hermiteSpec = simSpec{name: "hermite-plummer-6k", plan: "i-parallel", n: 6144, integrator: "hermite", episodeSteps: 2, dtMin: simDT / 8}
)

func runJW(cfg runConfig) (*result, error)      { return runSim(cfg, jwSpec) }
func runHermite(cfg runConfig) (*result, error) { return runSim(cfg, hermiteSpec) }

// setup generates the initial conditions and builds the engine with the
// kernel pre-flight, the way the nbody CLI does.
func (sp simSpec) setup(seed uint64) (*core.Engine, *body.System, time.Duration, error) {
	start := time.Now()
	sys := ic.Plummer(sp.n, realizationSeed(seed, 0))
	opt := bh.DefaultOptions()
	opt.Theta, opt.Eps = simTheta, simEps
	eng, err := core.NewEngineByName(sp.plan,
		core.WithDevice(gpusim.HD5850()),
		core.WithPPParams(pp.Params{G: 1, Eps: simEps}),
		core.WithBHOptions(opt),
		core.WithKernelCheck("warn", io.Discard))
	return eng, sys, time.Since(start), err
}

// episode is what one RunContext call measured.
type episode struct {
	wall, firstRecord time.Duration
	steps, snapshots  int
	drift             float64
	flops             int64
	kernelSeconds     float64
	substeps          int64
	activeFraction    float64
	gcCPU, totalCPU   float64 // runtime/metrics CPU seconds during the call
	retainedMB        float64 // live heap after the collection before the call
}

// episode runs one RunContext call on a copy of base. With o non-nil the
// call runs inside a root "sim.RunContext" span whose trace context reaches
// the step, block and engine spans.
func (sp simSpec) episode(ctx context.Context, eng sim.Engine, ce *core.Engine, base *body.System, o *obs.Obs) (episode, error) {
	sys := base.Clone()
	integ, err := integrate.New(sp.integrator)
	if err != nil {
		return episode{}, err
	}
	if o != nil {
		root := o.Trace.Start("sim.RunContext", "bench").Trace(obs.NewTraceContext())
		defer root.End()
		ctx = obs.WithTraceContext(ctx, root.TraceContext())
	}
	flops0, kernel0 := ce.Flops, ce.KernelSeconds
	gc0, cpu0 := gcCPU()
	var first time.Duration
	start := time.Now()
	snaps, err := sim.RunContext(ctx, sys, eng, integ, sim.Config{
		DT:         simDT,
		Steps:      sp.episodeSteps,
		G:          1,
		Eps:        simEps,
		Integrator: sp.integrator,
		DTMin:      sp.dtMin,
		Scenario:   "plummer",
		Obs:        o,
		OnSnapshot: func(sim.Snapshot) error {
			if first == 0 {
				first = time.Since(start)
			}
			return nil
		},
	})
	wall := time.Since(start)
	gc1, cpu1 := gcCPU()
	ep := episode{
		wall:           wall,
		firstRecord:    first,
		steps:          sp.episodeSteps,
		snapshots:      len(snaps),
		drift:          sim.EnergyDrift(snaps),
		flops:          ce.Flops - flops0,
		kernelSeconds:  ce.KernelSeconds - kernel0,
		substeps:       int64(sp.episodeSteps),
		activeFraction: 1,
		gcCPU:          gc1 - gc0,
		totalCPU:       cpu1 - cpu0,
	}
	if h, ok := integ.(*integrate.Hermite); ok {
		ep.substeps = h.Substeps()
		ep.activeFraction = h.MeanActiveFraction()
	}
	return ep, err
}

// realizationSeed is the Plummer seed of episode k of a run. Episodes cycle
// through realizations because a block-timestep hierarchy, and so the cost
// of a Hermite step, depends on the closest pairs of one realization; the
// run's totals then average over several.
func realizationSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// measure runs episodes until seconds have passed (at least one), checking
// each for engine errors and for energy drift under the Plummer preset.
// Episode 0 starts from first (the set-up realization); episode k from
// realization k, generated outside the timed call.
func (sp simSpec) measure(ctx context.Context, res *result, eng sim.Engine, ce *core.Engine, first *body.System, seed uint64, o *obs.Obs, seconds float64) []episode {
	tol, _ := sim.ScenarioTolerances("plummer")
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var eps []episode
	for len(eps) == 0 || time.Now().Before(deadline) {
		base := first
		if k := len(eps); k > 0 {
			base = ic.Plummer(sp.n, realizationSeed(seed, k))
		}
		// Every episode starts from a collected heap, whose live size is the
		// memory the engine retains between runs.
		retained := retainedHeapMB()
		ep, err := sp.episode(ctx, eng, ce, base, o)
		ep.retainedMB = retained
		if !res.check(err == nil, "episode %d: %v", len(eps), err) {
			break
		}
		res.check(ep.drift <= tol.MaxEnergyDrift, "episode %d: energy drift %g over the plummer preset %g", len(eps), ep.drift, tol.MaxEnergyDrift)
		eps = append(eps, ep)
	}
	return eps
}

// gate checks the first force evaluation against the CPU reference: the
// treecode against pp.Parallel, the jerk unit's full-set AccelJerk against
// pp.ScalarJerk. It also warms the engine's buffers before timing.
func (sp simSpec) gate(ctx context.Context, res *result, eng *core.Engine, sys *body.System) {
	params := pp.Params{G: 1, Eps: simEps}
	if sp.integrator == "hermite" {
		all := make([]int, sys.N())
		for i := range all {
			all[i] = i
		}
		got, gotJerk := sys.Clone(), make([]vec.V3, sys.N())
		_, err := eng.AccelJerk(ctx, got, all, gotJerk)
		if !res.check(err == nil, "gate AccelJerk: %v", err) {
			return
		}
		ref, refJerk := sys.Clone(), make([]vec.V3, sys.N())
		pp.ScalarJerk(ref, all, refJerk, params)
		res.check(accelGate(ref.Acc, got.Acc, jerkAccelRMSBound) == nil, "gate acceleration: %v", accelGate(ref.Acc, got.Acc, jerkAccelRMSBound))
		res.check(accelGate(refJerk, gotJerk, jerkJerkRMSBound) == nil, "gate jerk: %v", accelGate(refJerk, gotJerk, jerkJerkRMSBound))
		return
	}
	got := sys.Clone()
	_, err := eng.AccelContext(ctx, got)
	if !res.check(err == nil, "gate Accel: %v", err) {
		return
	}
	ref := sys.Clone()
	pp.Parallel(ref, params, runtime.GOMAXPROCS(0))
	err = accelGate(ref.Acc, got.Acc, jwAccelRMSBound)
	res.check(err == nil, "gate acceleration: %v", err)
}

// accelGate fails when got differs from want by more than bound in
// relative RMS (pp.RMSRelError).
func accelGate(want, got []vec.V3, bound float64) error {
	if len(want) != len(got) || len(want) == 0 {
		return fmt.Errorf("%d reference values against %d", len(want), len(got))
	}
	if rms := pp.RMSRelError(want, got, accelGateErrorFloor); !(rms <= bound) {
		return fmt.Errorf("relative RMS error %.3g exceeds %.3g", rms, bound)
	}
	return nil
}

// runSim is the whole run of a simulation workload.
func runSim(cfg runConfig, sp simSpec) (*result, error) {
	ctx := context.Background()
	res := &result{}
	var setups []float64
	var eng *core.Engine
	var base *body.System
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each set-up starts from a collected heap
		e, s, d, err := sp.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		eng, base = e, s
		setups = append(setups, d.Seconds())
	}
	sp.gate(ctx, res, eng, base)

	if !cfg.trace {
		eps := sp.measure(ctx, res, eng, eng, base, cfg.seed, nil, cfg.seconds)
		sp.endToEnd(res, setups, eps)
		return res, nil
	}

	// Traced run: an untraced half gives the base of the tracing overhead
	// and the GC share, then the traced half gives the per-layer numbers.
	plain := sp.measure(ctx, res, eng, eng, base, cfg.seed, nil, cfg.seconds/2)

	o := obs.New()
	eng.SetObs(o)
	st := &evalStats{}
	traced := sp.measure(ctx, res, &tracedEngine{Engine: eng, tr: o.Trace, st: st}, eng, base, cfg.seed, o, cfg.seconds/2)
	eng.SetObs(nil)

	spans := wallSpans(o.Trace)
	l := newLayers()
	steps := filter(spans, named("step", "sim"))
	l.set("sim.step_ms_p50", median(durationsMS(steps)), percentileNote(len(steps), 500))
	l.set("sim.step.samples", float64(len(steps)), "")

	evalSpans := filter(spans, func(s span) bool { return s.cat == "bench" && s.name != "sim.RunContext" })
	var snapMS float64
	var snaps, totalSteps int
	var substeps int64
	var activeWeighted float64
	var drifts []float64
	for _, ep := range traced {
		snaps += ep.snapshots
		totalSteps += ep.steps
		substeps += ep.substeps
		activeWeighted += ep.activeFraction * float64(ep.substeps)
		drifts = append(drifts, ep.drift)
	}
	l.set("sim.energy_drift", median(drifts), countNote(len(drifts))+" episodes, median of sim.EnergyDrift")
	for _, root := range filter(spans, named("sim.RunContext", "bench")) {
		snapMS += selfTime(root.iv, within(root.iv, steps)) / 1e3
	}
	if snaps > 0 {
		l.set("sim.snapshot_ms", snapMS/float64(snaps), "RunContext self time outside its steps, per snapshot")
	}
	l.set("sim.snapshot.samples", float64(snaps), "")
	var integMS float64
	for _, s := range steps {
		integMS += selfTime(s.iv, within(s.iv, evalSpans)) / 1e3
	}
	if len(steps) > 0 {
		l.set("integrate.self_ms_per_step", integMS/float64(len(steps)), fmt.Sprintf("base %d steps", len(steps)))
	}
	if totalSteps > 0 && substeps > 0 {
		l.set("integrate.substeps_per_step", float64(substeps)/float64(totalSteps), fmt.Sprintf("%d substeps / %d steps", substeps, totalSteps))
		l.set("integrate.active_fraction", activeWeighted/float64(substeps), fmt.Sprintf("base %d bodies x %d substeps", sp.n, substeps))
	}
	walkCap := 0
	if p, ok := eng.Plan.(*core.JWParallel); ok {
		walkCap = min(p.GroupCap, p.LocalSize)
	}
	evalLayers(l, st, spans, totalSteps, sp.n, walkCap)
	var gc, cpu, heap float64
	for _, ep := range plain {
		gc += ep.gcCPU
		cpu += ep.totalCPU
		heap = max(heap, ep.retainedMB)
	}
	l.set("runtime.heap_retained_mb", heap, "largest live heap after the collection before each untraced episode")
	if cpu > 0 {
		l.set("runtime.gc_cpu_frac", gc/cpu, "GC CPU over available CPU inside the untraced half's RunContext calls")
	}
	l.set("obs.spans", float64(len(spans)), "")
	perStep := func(eps []episode) float64 {
		var wall time.Duration
		var n int
		for _, ep := range eps {
			wall += ep.wall
			n += ep.steps
		}
		return wall.Seconds() / float64(n)
	}
	if len(plain) > 0 && len(traced) > 0 {
		l.set("obs.trace_overhead_frac", perStep(traced)/perStep(plain)-1,
			fmt.Sprintf("wall per step, %d traced vs %d untraced episodes", len(traced), len(plain)))
	}
	l.set("error_rate", res.ops.rate(), fmt.Sprintf("%d failed of %d operations", res.ops.failed, res.ops.attempted))
	res.metrics = l.metrics()
	path, err := writeSpanFile(cfg.outDir, sp.name, cfg.seed, o.Trace)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.spanFile = path
	return res, nil
}

// endToEnd fills the end-to-end metrics of an untraced run. A "job" of a
// simulation workload is one RunContext episode.
func (sp simSpec) endToEnd(res *result, setups []float64, eps []episode) {
	var rates, walls, firsts []float64
	var wallSum time.Duration
	var flops int64
	var kernel float64
	for _, ep := range eps {
		rates = append(rates, float64(ep.steps)/ep.wall.Seconds())
		walls = append(walls, ms(ep.wall))
		firsts = append(firsts, ms(ep.firstRecord))
		wallSum += ep.wall
		flops += ep.flops
		kernel += ep.kernelSeconds
	}
	n := len(eps)
	res.add("setup_s", median(setups), "s", countNote(len(setups))+" set-ups, median")
	res.add("steps_per_s", median(rates), "1/s", countNote(n)+fmt.Sprintf(" RunContext episodes of %d steps, median", sp.episodeSteps))
	gflops := 0.0
	if kernel > 0 {
		gflops = float64(flops) / kernel / 1e9
	}
	res.add("modelled_gflops", gflops, "GFLOPS", "Engine flops over modelled kernel seconds")
	res.add("jobs_per_s", float64(n)/wallSum.Seconds(), "1/s", countNote(n)+" RunContext episodes")
	res.add("job_latency_ms_p50", median(walls), "ms", percentileNote(n, 500))
	res.add("job_latency_ms_p90", quantile(walls, 0.9), "ms", percentileNote(n, 900))
	res.add("first_record_ms_p50", median(firsts), "ms", percentileNote(n, 500))
}
