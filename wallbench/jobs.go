package main

import (
	"encoding/json"
	"math/rand/v2"
	"sync"

	"repro/internal/ic"
	"repro/internal/serve"
)

// jobShape is one row of the nbodyd-mixed design: what a job costs is fixed
// by its shape, so every seed serves the same mix of work.
type jobShape struct {
	plan       string
	n          int
	integrator string
	steps      int
	every      int
	dtMin      float64
	scenario   string // fixed scenario; "" draws one from heavyScenarios or hermiteScenarios
}

// Design of one cycle of the job list: 63 small jobs and 9 heavy ones.
//
// Small jobs cross three plans with N in {128, 256, 512}. The cells at 128
// and 256 bodies get nine replicas and the cells at 512 three, so that the
// median job falls inside the dense cluster of ~25 ms jobs rather than on
// the gap before the slower ones, where it would jump between runs. The
// replicas of a cell take the (steps, snapshot_every) pairs of
// smallCadences (a three-replica cell every third pair).
//
// Heavy jobs are one in eight: j-parallel at N=256, the plan the paper
// recommends at small N and the slowest in wall time, and Hermite on
// i-parallel at N=256. The four Hermite jobs all run 6 steps with the block
// hierarchy floored at dt/8, so they cost alike; they are the cheapest heavy
// jobs and so set job_latency_ms_p90.
var (
	smallCells = []struct {
		plan     string
		n        int
		replicas int
	}{
		{"i-parallel", 128, 9}, {"i-parallel", 256, 9}, {"i-parallel", 512, 3},
		{"w-parallel", 128, 9}, {"w-parallel", 256, 9}, {"w-parallel", 512, 3},
		{"jw-parallel", 128, 9}, {"jw-parallel", 256, 9}, {"jw-parallel", 512, 3},
	}
	smallCadences = [][2]int{{10, 1}, {11, 2}, {12, 3}, {13, 4}, {15, 5}, {16, 1}, {18, 2}, {19, 3}, {20, 5}}
	// Each small cell draws its scenarios from this list in a seeded order:
	// the five named generators, two of them twice, and two explicit-body
	// uploads.
	smallScenarios = []string{"plummer", "hernquist", "cube", "disk", "collision", "plummer", "hernquist", "explicit", "explicit"}
	heavyShapes    = []jobShape{
		{plan: "j-parallel", n: 256, integrator: "leapfrog", steps: 10, every: 2},
		{plan: "j-parallel", n: 256, integrator: "leapfrog", steps: 12, every: 3},
		{plan: "j-parallel", n: 256, integrator: "leapfrog", steps: 15, every: 5},
		{plan: "j-parallel", n: 256, integrator: "leapfrog", steps: 18, every: 1},
		{plan: "j-parallel", n: 256, integrator: "leapfrog", steps: 20, every: 4},
		{plan: "i-parallel", n: 256, integrator: "hermite", steps: 6, every: 1, dtMin: jobDT / 8},
		{plan: "i-parallel", n: 256, integrator: "hermite", steps: 6, every: 2, dtMin: jobDT / 8},
		{plan: "i-parallel", n: 256, integrator: "hermite", steps: 6, every: 3, dtMin: jobDT / 8},
		{plan: "i-parallel", n: 256, integrator: "hermite", steps: 6, every: 6, dtMin: jobDT / 8},
	}
	heavyScenarios   = []string{"plummer", "hernquist", "cube", "disk", "collision"}
	hermiteScenarios = []string{"plummer", "hernquist"}
)

// heavyEvery places a heavy job at every heavyEvery-th position of a pass.
const heavyEvery = 8

// jobDT is the outer step of every job.
const jobDT = 0.01

// listJob is one entry of the job list: the spec and its encoded body.
type listJob struct {
	spec serve.JobSpec
	body []byte
}

// jobCycle builds one cycle of the job list from the seed: the fixed design
// above with, per seed, the scenario of every job and every realization (IC
// seed and explicit bodies). The small jobs come first, then the heavy ones;
// jobOrder walks the cycle.
func jobCycle(seed uint64) ([]listJob, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6e626f647964))
	var shapes []jobShape
	for _, cell := range smallCells {
		scen := append([]string(nil), smallScenarios...)
		rng.Shuffle(len(scen), func(i, j int) { scen[i], scen[j] = scen[j], scen[i] })
		stride := len(smallCadences) / cell.replicas
		for r := 0; r < cell.replicas; r++ {
			c := smallCadences[r*stride]
			shapes = append(shapes, jobShape{plan: cell.plan, n: cell.n, integrator: "leapfrog",
				steps: c[0], every: c[1], scenario: scen[r]})
		}
	}
	for _, h := range heavyShapes {
		set := heavyScenarios
		if h.integrator == "hermite" {
			set = hermiteScenarios
		}
		h.scenario = set[rng.IntN(len(set))]
		shapes = append(shapes, h)
	}
	jobs := make([]listJob, 0, len(shapes))
	for _, sh := range shapes {
		icSeed := 1 + rng.Uint64N(1<<31)
		spec := serve.JobSpec{
			SchemaVersion: serve.JobSchemaVersion,
			Plan:          sh.plan,
			Scenario:      &serve.ScenarioSpec{Name: sh.scenario, N: sh.n, Seed: icSeed},
			Steps:         sh.steps,
			DT:            jobDT,
			SnapshotEvery: sh.every,
			Integrator:    sh.integrator,
			DTMin:         sh.dtMin,
		}
		if sh.scenario == "explicit" {
			spec.Scenario = &serve.ScenarioSpec{Name: "explicit", Bodies: explicitBodies(sh.n, icSeed)}
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, listJob{spec: spec, body: body})
	}
	return jobs, nil
}

// explicitBodies is an uploaded Plummer realization.
func explicitBodies(n int, seed uint64) []serve.BodySpec {
	sys := ic.Plummer(n, seed)
	out := make([]serve.BodySpec, n)
	for i := range out {
		p, v := sys.Pos[i], sys.Vel[i]
		out[i] = serve.BodySpec{Pos: [3]float32{p.X, p.Y, p.Z}, Vel: [3]float32{v.X, v.Y, v.Z}, Mass: sys.Mass[i]}
	}
	return out
}

// jobOrder yields the index into the cycle of the k-th job the clients
// send. Each pass over the cycle is a fresh seeded order with a heavy job at
// every heavyEvery-th position, so any stretch of the run carries the same
// share of heavy work wherever the deadline cuts it.
type jobOrder struct {
	mu           sync.Mutex
	sent         int
	rng          *rand.Rand
	small, heavy int
	passes       [][]int
}

func newJobOrder(seed uint64, cycleLen int) *jobOrder {
	heavy := len(heavyShapes)
	return &jobOrder{rng: rand.New(rand.NewPCG(seed, 0x6f72646572)), small: cycleLen - heavy, heavy: heavy}
}

// next returns the sequence number and the cycle index of the next job to
// send; the clients share one jobOrder.
func (o *jobOrder) next() (k, idx int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k = o.sent
	o.sent++
	return k, o.at(k)
}

// at returns the cycle index of job k. Callers other than next must not
// share the jobOrder.
func (o *jobOrder) at(k int) int {
	size := o.small + o.heavy
	pass := k / size
	for len(o.passes) <= pass {
		small, heavy := o.rng.Perm(o.small), o.rng.Perm(o.heavy)
		order := make([]int, 0, size)
		for pos := 0; pos < size; pos++ {
			if pos%heavyEvery == heavyEvery-1 && len(heavy) > 0 {
				order = append(order, o.small+heavy[0])
				heavy = heavy[1:]
			} else {
				order = append(order, small[0])
				small = small[1:]
			}
		}
		o.passes = append(o.passes, order)
	}
	return o.passes[pass][k%size]
}
