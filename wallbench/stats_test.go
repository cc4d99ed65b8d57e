package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/vec"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want int // per-mille; 0 means none
	}{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {101, 900},
		{999, 900}, {1000, 990}, {9999, 990}, {10000, 999},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if !ok {
			got = 0
		}
		if got != c.want {
			t.Errorf("highestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// 90% of 100 is exactly rank 90, leaving exactly ten samples beyond.
	if got := samplesBeyond(100, 900); got != 10 {
		t.Errorf("samplesBeyond(100, p90) = %d, want 10", got)
	}
	if reportable(99, 900) || !reportable(100, 900) {
		t.Errorf("p90 must be reportable from 100 samples on, not below")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing must be NaN")
	}
}

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 40}, // overlapping: [10,40] counts once
		{50, 60}, {52, 55}, // nested: inside [50,60]
		{90, 120},  // sticks out: only [90,100] counts
		{150, 160}, // outside: ignored
	}
	if got := coveredLength(parent, children); got != 50 {
		t.Errorf("covered = %v, want 50", got)
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self = %v, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self without children = %v, want 100", got)
	}
}

func TestWithinUsesContainment(t *testing.T) {
	spans := []span{
		{name: "a", iv: interval{0, 5}},
		{name: "b", iv: interval{10, 20}},
		{name: "c", iv: interval{15, 40}}, // starts inside, ends outside
		{name: "d", iv: interval{20, 30}},
		{name: "e", iv: interval{31, 35}},
	}
	got := within(interval{10, 30}, spans)
	want := []interval{{10, 20}, {20, 30}}
	if len(got) != len(want) {
		t.Fatalf("within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("within[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestErrorRateCountsRefusalsAndMismatches(t *testing.T) {
	var c tally
	c.status(202) // accepted
	c.status(429) // refused by admission control: a failure
	c.status(200) // stream
	c.status(503) // draining: a failure
	var res result
	res.check(compareRecords(records(), records()) == nil, "equal records")
	bad := records()
	bad[1].Total += 1e-12
	res.check(compareRecords(records(), bad) == nil, "mismatch")
	c.add(res.ops)
	if c.attempted != 6 || c.failed != 3 {
		t.Fatalf("tally = %d failed of %d, want 3 of 6", c.failed, c.attempted)
	}
	if got := c.rate(); got != 0.5 {
		t.Errorf("error rate = %v, want 0.5", got)
	}
	if len(res.failures) != 1 {
		t.Errorf("failures = %v, want the mismatch only", res.failures)
	}
	if (tally{}).rate() != 0 {
		t.Errorf("empty tally must have rate 0")
	}
}

func records() []sim.Snapshot {
	return []sim.Snapshot{
		{Step: 0, Kinetic: 0.25, Potential: -0.5, Total: -0.25, VirialRatio: 0.5},
		{Step: 5, Time: 0.05, Kinetic: 0.2501, Potential: -0.5001, Total: -0.25, Interactions: 1280},
	}
}

func TestCorruptedReferenceFailsTheGates(t *testing.T) {
	want := []vec.V3{{X: 1, Y: 0, Z: 0}, {X: 0, Y: 2, Z: 0}, {X: 0, Y: 0, Z: -3}}
	got := append([]vec.V3(nil), want...)
	if err := accelGate(want, got, 1e-6); err != nil {
		t.Fatalf("identical accelerations failed the gate: %v", err)
	}
	corrupt := append([]vec.V3(nil), want...)
	corrupt[1].Y = -2
	if err := accelGate(corrupt, got, jwAccelRMSBound); err == nil {
		t.Errorf("a corrupted reference passed the acceleration gate")
	}
	nan := append([]vec.V3(nil), want...)
	nan[0].X = float32(math.NaN())
	if err := accelGate(nan, got, jwAccelRMSBound); err == nil {
		t.Errorf("a NaN reference passed the acceleration gate")
	}
	if err := accelGate(want[:2], got, jwAccelRMSBound); err == nil {
		t.Errorf("a short reference passed the acceleration gate")
	}

	ref := records()
	if err := compareRecords(ref, records()); err != nil {
		t.Fatalf("identical records failed: %v", err)
	}
	ref[0].Momentum.X = 1e-9
	if err := compareRecords(ref, records()); err == nil {
		t.Errorf("a corrupted reference record passed")
	}
	if err := compareRecords(records()[:1], records()); err == nil {
		t.Errorf("a reference with fewer records passed")
	}
}

func isHeavy(spec serve.JobSpec) bool {
	return spec.Plan == "j-parallel" || spec.Integrator == "hermite"
}

func TestJobCycleIsSeededAndValid(t *testing.T) {
	a, err := jobCycle(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := jobCycle(7)
	c, _ := jobCycle(8)
	same, differs := true, false
	heavy := 0
	for i := range a {
		same = same && bytes.Equal(a[i].body, b[i].body)
		differs = differs || !bytes.Equal(a[i].body, c[i].body)
		if isHeavy(a[i].spec) {
			heavy++
		}
		spec, err := serve.DecodeJobSpec(a[i].body, serve.Limits{})
		if err != nil {
			t.Fatalf("job %d does not decode: %v", i, err)
		}
		if err := spec.Validate(serve.Limits{}); err != nil {
			t.Errorf("job %d invalid: %v", i, err)
		}
	}
	if !same {
		t.Errorf("the same seed gave different job lists")
	}
	if !differs {
		t.Errorf("different seeds gave the same job list")
	}
	if len(a) != 72 || heavy != 9 {
		t.Errorf("cycle has %d jobs, %d heavy; want 72 and 9", len(a), heavy)
	}
}

func TestJobOrderSpacesHeavyJobs(t *testing.T) {
	cycle, err := jobCycle(3)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := newJobOrder(3, len(cycle)), newJobOrder(3, len(cycle))
	for pass := 0; pass < 3; pass++ {
		seen := map[int]bool{}
		for pos := 0; pos < len(cycle); pos++ {
			k := pass*len(cycle) + pos
			idx := o1.at(k)
			if idx != o2.at(k) {
				t.Fatalf("job order is not a function of the seed")
			}
			seen[idx] = true
			if want := pos%heavyEvery == heavyEvery-1; isHeavy(cycle[idx].spec) != want {
				t.Errorf("pass %d position %d: heavy=%v, want %v", pass, pos, !want, want)
			}
		}
		if len(seen) != len(cycle) {
			t.Errorf("pass %d visits %d of %d jobs", pass, len(seen), len(cycle))
		}
	}
}

// TestBenchmarkFileMatchesTheMetrics keeps BENCHMARK.json, which the runs are
// judged by, in step with what the program prints.
func TestBenchmarkFileMatchesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []benchMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics)
	check("per_layer", doc.PerLayer, layerMetrics)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}
