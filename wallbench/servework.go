package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bh"
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/pp"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Load shape of nbodyd-mixed: a pool of two engines and a closed loop of two
// clients, each waiting for its job's stream to end before sending the next.
const (
	poolEngines     = 2
	clientCount     = 2
	queueDepth      = 8
	scrapeEvery     = 10
	minJobsForP90   = 100
	daemonStopAfter = 30 * time.Second
)

// daemon is an in-process nbodyd: the service, its HTTP server on a loopback
// listener, and the telemetry bundle they share, built the way cmd/nbodyd
// builds them.
type daemon struct {
	o      *obs.Obs
	pool   *serve.Pool
	svc    *serve.Service
	srv    *http.Server
	url    string
	served chan error
}

// startDaemon builds and starts a daemon and waits until /healthz answers.
func startDaemon(client *http.Client) (*daemon, time.Duration, error) {
	start := time.Now()
	o := obs.New()
	if err := core.PreflightKernelCheck("warn", o, io.Discard); err != nil {
		return nil, 0, err
	}
	pool, err := serve.NewPool(poolEngines, gpusim.HD5850(), o)
	if err != nil {
		return nil, 0, err
	}
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	svc := serve.NewService(serve.ServiceConfig{
		Engines:        poolEngines,
		QueueDepth:     queueDepth,
		DefaultTimeout: 5 * time.Minute,
		MaxRetries:     1,
		Limits:         serve.Limits{MaxBodies: 1_000_000, MaxSteps: 100_000},
		Obs:            o,
		Logger:         logger,
	}, pool)
	handler := serve.NewServer(svc)
	handler.AccessLog = logger
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{o: o, pool: pool, svc: svc, srv: &http.Server{Handler: handler},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := client.Get(d.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// stop drains the service, shuts the server down and waits for it.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), daemonStopAfter)
	defer cancel()
	drainErr := d.svc.Drain(ctx)
	shutErr := d.srv.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(drainErr, shutErr)
}

// servedJob is what a client saw of one job.
type servedJob struct {
	cycleIdx    int
	traced      bool
	submit      time.Duration
	latency     time.Duration
	firstRecord time.Duration
	finalAt     time.Time
	streamBytes int
	records     []sim.Snapshot
	status      serve.JobStatus
	done        bool
}

// client is one closed-loop client. Its tally and jobs are its own until the
// loop ends.
type client struct {
	http   *http.Client
	url    string
	tr     *obs.Tracer // nil: no client spans
	ops    tally
	fails  []string
	jobs   []servedJob
	scrape []float64
}

func (c *client) fail(format string, args ...any) {
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
}

// do sends one request under a client span and counts it; the caller reads
// and closes the body of a 2xx response.
func (c *client) do(req *http.Request, spanName string) (*http.Response, *obs.Span, bool) {
	sp := c.tr.Start(spanName, "bench")
	resp, err := c.http.Do(req)
	if err != nil {
		sp.End()
		c.ops.record(false)
		c.fail("%s %s: %v", req.Method, req.URL.Path, err)
		return nil, nil, false
	}
	if !c.ops.status(resp.StatusCode) {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sp.End()
		c.fail("%s %s: %s", req.Method, req.URL.Path, resp.Status)
		return nil, nil, false
	}
	return resp, sp, true
}

// runJob submits one job, streams its records to the final one, and reads
// its final status.
func (c *client) runJob(cycleIdx int, j listJob) {
	sj := servedJob{cycleIdx: cycleIdx}
	root := c.tr.Start("client job", "bench").Arg("plan", j.spec.Plan).Arg("n", j.spec.N())
	defer root.End()
	start := time.Now()

	req, _ := http.NewRequest(http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(j.body))
	req.Header.Set("Content-Type", "application/json")
	resp, sp, ok := c.do(req, "POST /v1/jobs")
	if !ok {
		return
	}
	var accepted serve.JobStatus
	err := json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	sp.End()
	sj.submit = time.Since(start)
	if !c.ops.record(err == nil && accepted.ID != "") {
		c.fail("submit: decoding status: %v", err)
		return
	}

	req, _ = http.NewRequest(http.MethodGet, c.url+"/v1/jobs/"+accepted.ID+"/stream", nil)
	resp, sp, ok = c.do(req, "GET stream")
	if !ok {
		return
	}
	final, err := c.readStream(resp.Body, start, &sj)
	resp.Body.Close()
	sp.End()
	if !c.ops.record(err == nil && final.State == serve.StateDone) {
		c.fail("job %s: stream ended in state %q: %v %s", accepted.ID, final.State, err, final.Error)
		return
	}

	req, _ = http.NewRequest(http.MethodGet, c.url+"/v1/jobs/"+accepted.ID, nil)
	resp, sp, ok = c.do(req, "GET status")
	if !ok {
		return
	}
	err = json.NewDecoder(resp.Body).Decode(&sj.status)
	resp.Body.Close()
	sp.End()
	if !c.ops.record(err == nil && sj.status.State == serve.StateDone) {
		c.fail("job %s: final status %q: %v", accepted.ID, sj.status.State, err)
		return
	}
	c.jobs = append(c.jobs, sj)
}

// readStream reads NDJSON records up to the final one.
func (c *client) readStream(body io.Reader, start time.Time, sj *servedJob) (serve.SnapshotRecord, error) {
	br := bufio.NewReaderSize(body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		sj.streamBytes += len(line)
		if len(bytes.TrimSpace(line)) > 0 {
			var rec serve.SnapshotRecord
			if derr := json.Unmarshal(line, &rec); derr != nil {
				return rec, fmt.Errorf("decoding record: %w", derr)
			}
			if rec.Snapshot != nil {
				if sj.records == nil {
					sj.firstRecord = time.Since(start)
				}
				sj.records = append(sj.records, rec.Snapshot.Snapshot())
			}
			if rec.Final {
				sj.finalAt = time.Now()
				sj.latency = sj.finalAt.Sub(start)
				return rec, nil
			}
		}
		if err != nil {
			return serve.SnapshotRecord{}, fmt.Errorf("stream ended before the final record: %w", err)
		}
	}
}

// scrapeMetrics reads /metrics as Prometheus text and checks it parses as
// such.
func (c *client) scrapeMetrics() {
	start := time.Now()
	req, _ := http.NewRequest(http.MethodGet, c.url+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, sp, ok := c.do(req, "GET /metrics")
	if !ok {
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.End()
	c.scrape = append(c.scrape, ms(time.Since(start)))
	if !c.ops.record(err == nil && bytes.Contains(data, []byte("# TYPE "))) {
		c.fail("scrape: not Prometheus text (%d bytes, %v)", len(data), err)
	}
}

// loadPhase runs the clients until the deadline and returns what they saw.
// Jobs in flight at the deadline run to completion.
func loadPhase(d *daemon, httpc *http.Client, cycle []listJob, order *jobOrder, seconds float64, tr *obs.Tracer) ([]*client, time.Duration) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	clients := make([]*client, clientCount)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		c := &client{http: httpc, url: d.url, tr: tr}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k, idx := order.next()
				c.runJob(idx, cycle[idx])
				if k%scrapeEvery == scrapeEvery-1 {
					c.scrapeMetrics()
				}
			}
		}()
	}
	wg.Wait()
	return clients, time.Since(start)
}

// referenceRun runs a job spec directly through sim.RunContext on a fresh
// engine built as the pool builds it: the serve≡direct contract says the
// streamed physics must be identical. With st non-nil the run is traced on
// o and its evaluations recorded.
func referenceRun(spec serve.JobSpec, o *obs.Obs, st *evalStats) ([]sim.Snapshot, int, error) {
	theta, eps := spec.Theta, spec.Eps
	if theta == 0 {
		theta = 0.6
	}
	if eps == 0 {
		eps = 0.05
	}
	params := pp.DefaultParams()
	params.Eps = float32(eps)
	opt := bh.DefaultOptions()
	opt.Theta, opt.Eps = float32(theta), float32(eps)
	eng, err := core.NewEngineByName(spec.Plan, core.WithDevice(gpusim.HD5850()), core.WithPPParams(params), core.WithBHOptions(opt))
	if err != nil {
		return nil, 0, err
	}
	sys, err := spec.System()
	if err != nil {
		return nil, 0, err
	}
	name := spec.Integrator
	if name == "" {
		name = "leapfrog"
	}
	integ, err := integrate.New(name)
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	var e sim.Engine = eng
	if st != nil {
		eng.SetObs(o)
		e = &tracedEngine{Engine: eng, tr: o.Trace, st: st}
		root := o.Trace.Start("sim.RunContext", "bench").Trace(obs.NewTraceContext()).Arg("plan", spec.Plan)
		defer root.End()
		ctx = obs.WithTraceContext(ctx, root.TraceContext())
	} else {
		o = nil
	}
	snaps, err := sim.RunContext(ctx, sys, e, integ, sim.Config{
		DT:            float32(spec.DT),
		Steps:         spec.Steps,
		SnapshotEvery: spec.SnapshotEvery,
		G:             1,
		Eps:           eps,
		Integrator:    name,
		Scenario:      spec.ScenarioName(),
		DTMin:         float32(spec.DTMin),
		DTMax:         float32(spec.DTMax),
		Eta:           float32(spec.Eta),
		Obs:           o,
	})
	substeps := spec.Steps
	if h, ok := integ.(*integrate.Hermite); ok {
		substeps = int(h.Substeps())
	}
	return snaps, substeps, err
}

// directRun is the reference run of one distinct job spec.
type directRun struct {
	snaps    []sim.Snapshot
	substeps int
	err      error
}

// directRuns runs every distinct spec the jobs used once. Untraced, two
// workers share the runs; traced (st non-nil), they run one after another
// so that span containment attributes each evaluation to its own step.
func directRuns(cycle []listJob, jobs []servedJob, o *obs.Obs, st *evalStats) map[int]directRun {
	var idxs []int
	seen := map[int]bool{}
	for _, j := range jobs {
		if !seen[j.cycleIdx] {
			seen[j.cycleIdx] = true
			idxs = append(idxs, j.cycleIdx)
		}
	}
	sort.Ints(idxs)
	out := make(map[int]directRun, len(idxs))
	workers := clientCount
	if st != nil {
		workers = 1
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				snaps, sub, err := referenceRun(cycle[idx].spec, o, st)
				mu.Lock()
				out[idx] = directRun{snaps: snaps, substeps: sub, err: err}
				mu.Unlock()
			}
		}()
	}
	for _, idx := range idxs {
		work <- idx
	}
	close(work)
	wg.Wait()
	return out
}

// compareRecords checks streamed snapshots against a direct run's: every
// physics field must be identical (wall and modelled timings may differ).
func compareRecords(want, got []sim.Snapshot) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d records streamed, direct run has %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Step != g.Step || w.Time != g.Time || w.Kinetic != g.Kinetic || w.Potential != g.Potential ||
			w.Total != g.Total || w.Momentum != g.Momentum || w.VirialRatio != g.VirialRatio || w.Interactions != g.Interactions {
			return fmt.Errorf("record %d: streamed {step %d E %v K %v P %v} != direct {step %d E %v K %v P %v}",
				i, g.Step, g.Total, g.Kinetic, g.Momentum, w.Step, w.Total, w.Kinetic, w.Momentum)
		}
	}
	return nil
}

// runNbodyd is the whole run of the nbodyd-mixed workload.
func runNbodyd(cfg runConfig) (*result, error) {
	res := &result{}
	cycle, err := jobCycle(cfg.seed)
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: clientCount, MaxIdleConnsPerHost: clientCount}
	defer transport.CloseIdleConnections()
	httpc := &http.Client{Transport: transport}

	var d *daemon
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each start-up begins from a collected heap
		nd, took, err := startDaemon(httpc)
		if err != nil {
			return nil, fmt.Errorf("starting the daemon: %w", err)
		}
		setups = append(setups, took.Seconds())
		if i == setupRepeats-1 {
			d = nd
		} else if err := nd.stop(); err != nil {
			return nil, fmt.Errorf("stopping the daemon: %w", err)
		}
	}

	order := newJobOrder(cfg.seed, len(cycle))
	var plain, traced []*client
	var plainWall, tracedWall time.Duration
	var heapMB, gcFrac float64 // traced run only
	if cfg.trace {
		gc0, cpu0 := gcCPU()
		plain, plainWall = loadPhase(d, httpc, cycle, order, cfg.seconds/2, nil)
		gc1, cpu1 := gcCPU()
		if cpu1 > cpu0 {
			gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
		}
		traced, tracedWall = loadPhase(d, httpc, cycle, order, cfg.seconds/2, d.o.Trace)
		heapMB = retainedHeapMB() // the daemon is still up: its records, spans and engines
	} else {
		plain, plainWall = loadPhase(d, httpc, cycle, order, cfg.seconds, nil)
	}
	slots := d.pool.Info()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", err)
	}
	all := append(append([]*client(nil), plain...), traced...)
	for _, c := range all {
		res.ops.add(c.ops)
		res.failures = append(res.failures, c.fails...)
	}

	// Correctness, outside the timed phase: every served job's records must
	// equal a direct run of its spec. Each distinct spec runs once.
	var refObs *obs.Obs
	var refStats *evalStats
	if cfg.trace {
		refObs, refStats = obs.New(), &evalStats{}
	}
	var jobs []servedJob
	for _, c := range all {
		jobs = append(jobs, c.jobs...)
	}
	refs := directRuns(cycle, jobs, refObs, refStats)
	refSubsteps := map[int]int{}
	for idx, r := range refs {
		if res.check(r.err == nil, "direct run of job spec %d: %v", idx, r.err) {
			refSubsteps[idx] = r.substeps
		}
	}
	for _, j := range jobs {
		if r := refs[j.cycleIdx]; r.err == nil {
			err := compareRecords(r.snaps, j.records)
			res.check(err == nil, "job %s (%s, N=%d): %v", j.status.ID, j.status.Plan, j.status.N, err)
		}
	}

	if !cfg.trace {
		nbodydEndToEnd(res, cycle, setups, plain, plainWall)
		return res, nil
	}
	l := newLayers()
	nbodydLayers(l, d, cycle, plain, traced, tracedWall, refObs, refStats, refSubsteps)
	var cached int
	for _, s := range slots {
		cached += s.Engines
	}
	l.set("serve.engines_cached", float64(cached), fmt.Sprintf("Pool.Info over %d slots", len(slots)))
	l.set("serve.engine_slots", float64(len(slots)), "")
	l.set("runtime.gc_cpu_frac", gcFrac, "GC CPU over available CPU, untraced half")
	l.set("runtime.heap_retained_mb", heapMB, "live heap after a collection at the end of the load, daemon still up")
	l.set("error_rate", res.ops.rate(), fmt.Sprintf("%d failed of %d operations", res.ops.failed, res.ops.attempted))
	res.metrics = l.metrics()
	path, err := writeSpanFile(cfg.outDir, "nbodyd-mixed", cfg.seed, d.o.Trace)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.spanFile = path
	if _, err := writeSpanFile(cfg.outDir, "nbodyd-mixed-direct", cfg.seed, refObs.Trace); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// completed returns the jobs the clients saw finish.
func completed(clients []*client) []servedJob {
	var out []servedJob
	for _, c := range clients {
		out = append(out, c.jobs...)
	}
	return out
}

// nbodydEndToEnd fills the end-to-end metrics of an untraced nbodyd run.
func nbodydEndToEnd(res *result, cycle []listJob, setups []float64, clients []*client, wall time.Duration) {
	jobs := completed(clients)
	var lat, first, gflops []float64
	var steps int
	for _, j := range jobs {
		lat = append(lat, ms(j.latency))
		first = append(first, ms(j.firstRecord))
		if j.status.Perf != nil {
			gflops = append(gflops, j.status.Perf.SustainedGFLOPS)
		}
		steps += cycle[j.cycleIdx].spec.Steps
	}
	n := len(jobs)
	res.check(n >= minJobsForP90, "only %d jobs completed; job_latency_ms_p90 needs at least %d", n, minJobsForP90)
	res.add("setup_s", median(setups), "s", countNote(len(setups))+" daemon start-ups, median")
	res.add("steps_per_s", float64(steps)/wall.Seconds(), "1/s", fmt.Sprintf("%d outer steps of %d jobs", steps, n))
	res.add("modelled_gflops", median(gflops), "GFLOPS", countNote(len(gflops))+" jobs, median of JobStatus.perf.sustained_gflops")
	res.add("jobs_per_s", float64(n)/wall.Seconds(), "1/s", fmt.Sprintf("%d jobs in %.3f s, %d closed-loop clients", n, wall.Seconds(), clientCount))
	res.add("job_latency_ms_p50", median(lat), "ms", percentileNote(n, 500))
	res.add("job_latency_ms_p90", quantile(lat, 0.9), "ms", percentileNote(n, 900))
	res.add("first_record_ms_p50", median(first), "ms", percentileNote(n, 500))
}

// nbodydLayers fills the per-layer metrics of a traced nbodyd run. serve and
// sim numbers come from the served jobs of the traced half and the spans the
// service recorded for them; the engine layers (integrate, core, bh, gpusim,
// cl, pipeline) come from the traced direct runs of the same specs.
func nbodydLayers(l *layers, d *daemon, cycle []listJob, plain, traced []*client, tracedWall time.Duration,
	refObs *obs.Obs, refStats *evalStats, refSubsteps map[int]int) {
	jobs := completed(traced)
	n := len(jobs)
	l.set("serve.jobs", float64(n), fmt.Sprintf("traced half, %.3f s", tracedWall.Seconds()))
	var submit, wait, run, lag, records, streamBytes, drift []float64
	var retries int
	ids := map[string]servedJob{}
	for _, j := range jobs {
		ids[j.status.ID] = j
		submit = append(submit, ms(j.submit))
		wait = append(wait, float64(j.status.StartedAtMS-j.status.SubmittedAtMS))
		run = append(run, float64(j.status.FinishedAtMS-j.status.StartedAtMS))
		lag = append(lag, float64(j.finalAt.UnixMicro())/1e3-float64(j.status.FinishedAtMS))
		records = append(records, float64(len(j.records)))
		drift = append(drift, sim.EnergyDrift(j.records))
		streamBytes = append(streamBytes, float64(j.streamBytes))
		retries += j.status.Retries
	}
	l.set("serve.submit_ms_p50", median(submit), percentileNote(n, 500))
	l.set("serve.queue_wait_ms_p50", median(wait), percentileNote(n, 500)+", JobStatus ms timestamps")
	l.set("serve.queue_wait_ms_p90", quantile(wait, 0.9), percentileNote(n, 900)+", JobStatus ms timestamps")
	l.set("serve.run_ms_p50", median(run), percentileNote(n, 500)+", JobStatus ms timestamps")
	l.set("serve.stream_lag_ms_p50", median(lag), percentileNote(n, 500)+", finished_at_ms to client receipt")
	l.set("serve.records_per_job", mean(records), countNote(n)+" jobs")
	l.set("sim.energy_drift", median(drift), countNote(n)+" jobs, median of sim.EnergyDrift over streamed records")
	l.set("serve.stream_bytes_per_job", mean(streamBytes), countNote(n)+" jobs")
	l.set("serve.retries", float64(retries), countNote(n)+" jobs")
	var scrapes []float64
	for _, c := range traced {
		scrapes = append(scrapes, c.scrape...)
	}
	l.set("serve.scrapes", float64(len(scrapes)), "")
	if len(scrapes) > 0 {
		l.set("serve.scrape_ms_p50", median(scrapes), percentileNote(len(scrapes), 500))
	}

	// Service spans: attempt -> step links by parent id. An attempt's self
	// time is what the job costs beyond its integrator steps; the gap after
	// a step that snapshots is that snapshot's cost.
	spans := wallSpans(d.o.Trace)
	children := map[string][]span{}
	for _, s := range spans {
		if s.parentID != "" {
			children[s.parentID] = append(children[s.parentID], s)
		}
	}
	var overhead, stepMS, snapMS []float64
	for _, a := range filter(spans, named("attempt", "serve")) {
		id, _ := a.args["job_id"].(string)
		j, ok := ids[id]
		if !ok {
			continue
		}
		steps := filter(children[a.id], named("step", "sim"))
		ivs := make([]interval, len(steps))
		for i, s := range steps {
			ivs[i] = s.iv
		}
		overhead = append(overhead, selfTime(a.iv, ivs)/1e3)
		stepMS = append(stepMS, durationsMS(steps)...)
		every := cycle[j.cycleIdx].spec.SnapshotEvery
		for i := 0; i+1 < len(steps); i++ {
			if every > 0 && (i+1)%every == 0 {
				snapMS = append(snapMS, (steps[i+1].iv.start-steps[i].iv.end)/1e3)
			}
		}
	}
	l.set("serve.overhead_ms_p50", median(overhead), percentileNote(len(overhead), 500)+", attempt self time outside sim steps")
	l.set("sim.step_ms_p50", median(stepMS), percentileNote(len(stepMS), 500))
	l.set("sim.step.samples", float64(len(stepMS)), "")
	if len(snapMS) > 0 {
		l.set("sim.snapshot_ms", mean(snapMS), "mean gap between steps that snapshot, served jobs")
	}
	l.set("sim.snapshot.samples", float64(len(snapMS)), "")

	// Engine layers from the traced direct runs.
	ref := wallSpans(refObs.Trace)
	refSteps := filter(ref, named("step", "sim"))
	evalSpans := filter(ref, func(s span) bool { return s.cat == "bench" && strings.HasPrefix(s.name, "core.Engine.") })
	var integMS float64
	for _, s := range refSteps {
		integMS += selfTime(s.iv, within(s.iv, evalSpans)) / 1e3
	}
	var outer, sub int
	for idx, s := range refSubsteps {
		outer += cycle[idx].spec.Steps
		sub += s
	}
	if len(refSteps) > 0 {
		l.set("integrate.self_ms_per_step", integMS/float64(len(refSteps)), fmt.Sprintf("direct runs, base %d steps", len(refSteps)))
	}
	if outer > 0 {
		l.set("integrate.substeps_per_step", float64(sub)/float64(outer), fmt.Sprintf("direct runs, %d substeps / %d steps", sub, outer))
	}
	evalLayers(l, refStats, ref, outer, 0, 0)
	l.set("obs.spans", float64(len(spans)), "service tracer, both halves")

	// Tracing overhead: the same job specs served in both halves, compared
	// spec by spec (median latency ratio), so the two halves' different job
	// mixes cancel out.
	byIdx := func(js []servedJob) map[int][]float64 {
		m := map[int][]float64{}
		for _, j := range js {
			m[j.cycleIdx] = append(m[j.cycleIdx], ms(j.latency))
		}
		return m
	}
	plainBy, tracedBy := byIdx(completed(plain)), byIdx(jobs)
	var ratios []float64
	for idx, tl := range tracedBy {
		if pl, ok := plainBy[idx]; ok {
			ratios = append(ratios, median(tl)/median(pl))
		}
	}
	if len(ratios) > 0 {
		l.set("obs.trace_overhead_frac", median(ratios)-1,
			fmt.Sprintf("median over %d job specs served in both halves of the traced/untraced latency ratio", len(ratios)))
	}
}
