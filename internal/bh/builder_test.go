package bh

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/body"
	"repro/internal/ic"
	"repro/internal/vec"
)

// builderICs returns the input regimes the equivalence suite sweeps:
// realistic clustered and uniform sets, tiny systems, and the degenerate
// geometries (coincident, collinear, planar) that stress depth capping and
// the key horizon fallback.
func builderICs() map[string]*body.System {
	coincident := body.NewSystem(50)
	for i := range coincident.Pos {
		coincident.Pos[i] = vec.V3{X: 1, Y: 1, Z: 1}
		coincident.Mass[i] = 1
	}
	mixed := ic.Plummer(300, 9)
	for i := 0; i < 40; i++ {
		mixed.Pos[i] = vec.V3{X: 0.25, Y: -0.125, Z: 0.5}
	}
	collinear := body.NewSystem(257)
	for i := range collinear.Pos {
		collinear.Pos[i] = vec.V3{X: float32(i) * 0.01}
		collinear.Mass[i] = 1 + float32(i%3)
	}
	planar := body.NewSystem(400)
	{
		src := ic.UniformCube(400, 2, 11)
		copy(planar.Pos, src.Pos)
		copy(planar.Mass, src.Mass)
		for i := range planar.Pos {
			planar.Pos[i].Z = 0
		}
	}
	return map[string]*body.System{
		"plummer-1k":  ic.Plummer(1000, 1),
		"cube-500":    ic.UniformCube(500, 2, 2),
		"single":      ic.Plummer(1, 3),
		"two":         ic.Plummer(2, 4),
		"leafcap+1":   ic.Plummer(17, 5),
		"coincident":  coincident,
		"mixed-coinc": mixed,
		"collinear":   collinear,
		"planar":      planar,
	}
}

func builderOpts() map[string]Options {
	return map[string]Options{
		"default":            DefaultOptions(),
		"tight-theta":        {Theta: 0.3, LeafCap: 8, Eps: 0.05},
		"loose-theta-leaf1":  {Theta: 1.0, LeafCap: 1, Eps: 0.05},
		"shallow":            {Theta: 0.6, LeafCap: 16, MaxDepth: 4, Eps: 0.05},
		"deep-small-buckets": {Theta: 0.6, LeafCap: 4, MaxDepth: 60, Eps: 0.05},
	}
}

// requireTreesEqual asserts bitwise equality of the two trees: node array
// (every field, float bits included), and Index permutation.
func requireTreesEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	if !slices.Equal(want.Index, got.Index) {
		t.Fatalf("Index differs: legacy %v vs builder %v", want.Index, got.Index)
	}
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("node count differs: legacy %d vs builder %d", len(want.Nodes), len(got.Nodes))
	}
	for i := range want.Nodes {
		if want.Nodes[i] != got.Nodes[i] {
			t.Fatalf("node %d differs:\nlegacy  %+v\nbuilder %+v", i, want.Nodes[i], got.Nodes[i])
		}
	}
}

// requireWalksEqual asserts bitwise equality of the two walk sets: headers,
// bounds and both interaction lists of every walk.
func requireWalksEqual(t *testing.T, want, got *WalkSet) {
	t.Helper()
	if len(want.Walks) != len(got.Walks) {
		t.Fatalf("walk count differs: legacy %d vs builder %d", len(want.Walks), len(got.Walks))
	}
	for i := range want.Walks {
		a, b := &want.Walks[i], &got.Walks[i]
		if a.First != b.First || a.Count != b.Count || a.Bounds != b.Bounds {
			t.Fatalf("walk %d header differs: legacy %+v vs builder %+v", i, a, b)
		}
		if !slices.Equal(a.NodeList, b.NodeList) {
			t.Fatalf("walk %d NodeList differs: legacy %v vs builder %v", i, a.NodeList, b.NodeList)
		}
		if !slices.Equal(a.DirectList, b.DirectList) {
			t.Fatalf("walk %d DirectList differs: legacy %v vs builder %v", i, a.DirectList, b.DirectList)
		}
	}
}

// TestBuilderMatchesBuild is the golden equivalence gate of the Morton path:
// across ICs x options x worker counts, the Builder's tree and walks must be
// bitwise identical to the recursive oracle (oracle_test.go) — same node array,
// same Index permutation, same float summaries, same interaction lists.
func TestBuilderMatchesBuild(t *testing.T) {
	for icName, s := range builderICs() {
		for optName, opt := range builderOpts() {
			legacyTree, err := oracleBuild(s, opt)
			if err != nil {
				t.Fatalf("%s/%s: Build: %v", icName, optName, err)
			}
			legacyWalks, err := oracleBuildWalks(legacyTree, 24)
			if err != nil {
				t.Fatalf("%s/%s: BuildWalks: %v", icName, optName, err)
			}
			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				name := fmt.Sprintf("%s/%s/workers=%d", icName, optName, workers)
				b := &Builder{Workers: workers}
				// Two rounds through the same builder: the second exercises
				// arena reuse over dirty pooled state.
				for round := 0; round < 2; round++ {
					tree, err := b.BuildInto(s, opt)
					if err != nil {
						t.Fatalf("%s round %d: BuildInto: %v", name, round, err)
					}
					requireTreesEqual(t, legacyTree, tree)
					walks, err := b.BuildWalksInto(tree, 24)
					if err != nil {
						t.Fatalf("%s round %d: BuildWalksInto: %v", name, round, err)
					}
					requireWalksEqual(t, legacyWalks, walks)
					if err := tree.Validate(); err != nil {
						t.Fatalf("%s round %d: Validate: %v", name, round, err)
					}
					if err := walks.Validate(); err != nil {
						t.Fatalf("%s round %d: walks.Validate: %v", name, round, err)
					}
				}
			}
		}
	}
}

// TestBuilderReuseAcrossSystems drives one pooled builder through systems of
// varying size — grow, shrink, grow — checking equivalence each time, the
// pattern a long-lived engine pool sees across jobs.
func TestBuilderReuseAcrossSystems(t *testing.T) {
	b := &Builder{Workers: runtime.GOMAXPROCS(0)}
	for _, n := range []int{2000, 100, 1, 700, 3000} {
		s := ic.Plummer(n, uint64(n))
		want, err := oracleBuild(s, DefaultOptions())
		if err != nil {
			t.Fatalf("n=%d: Build: %v", n, err)
		}
		got, err := b.BuildInto(s, DefaultOptions())
		if err != nil {
			t.Fatalf("n=%d: BuildInto: %v", n, err)
		}
		requireTreesEqual(t, want, got)
		wantW, err := oracleBuildWalks(want, 64)
		if err != nil {
			t.Fatalf("n=%d: BuildWalks: %v", n, err)
		}
		gotW, err := b.BuildWalksInto(got, 64)
		if err != nil {
			t.Fatalf("n=%d: BuildWalksInto: %v", n, err)
		}
		requireWalksEqual(t, wantW, gotW)
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	var b Builder
	if _, err := b.BuildInto(body.NewSystem(0), DefaultOptions()); err == nil {
		t.Fatal("empty system accepted")
	}
}

func TestBuilderReset(t *testing.T) {
	b := &Builder{Workers: 2}
	s := ic.Plummer(500, 7)
	if _, err := b.BuildInto(s, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	tree, err := b.BuildInto(s, DefaultOptions())
	if err != nil {
		t.Fatalf("BuildInto after Reset: %v", err)
	}
	want, err := oracleBuild(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	requireTreesEqual(t, want, tree)
}

// TestBuilderParallelRace exercises the parallel build under the race
// detector: several goroutines each drive their own builder (builders are
// independent; sharing one is not supported) over the same shared read-only
// system, with the per-builder worker pools racing internally.
func TestBuilderParallelRace(t *testing.T) {
	s := ic.Plummer(4000, 13)
	want, err := oracleBuild(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := &Builder{Workers: runtime.GOMAXPROCS(0)}
			for round := 0; round < 3; round++ {
				tree, err := b.BuildInto(s, DefaultOptions())
				if err != nil {
					t.Errorf("BuildInto: %v", err)
					return
				}
				if len(tree.Nodes) != len(want.Nodes) {
					t.Errorf("node count %d, want %d", len(tree.Nodes), len(want.Nodes))
					return
				}
				if _, err := b.BuildWalksInto(tree, 24); err != nil {
					t.Errorf("BuildWalksInto: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuilderZeroAllocSteadyState pins the headline property: after warmup,
// a serial (Workers=1) build + walk construction over a pooled builder
// performs zero heap allocations per step. This is the CI allocs/op gate.
func TestBuilderZeroAllocSteadyState(t *testing.T) {
	s := ic.Plummer(4096, 17)
	b := &Builder{Workers: 1}
	step := func() {
		tree, err := b.BuildInto(s, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.BuildWalksInto(tree, 64); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the arenas
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("steady-state build+walks allocates %.1f objects/step, want 0", allocs)
	}
}

// TestWalkSetValidateZeroAlloc is the regression gate for the pooled covered
// bitmap: repeated Validate calls on one walk set must not allocate.
func TestWalkSetValidateZeroAlloc(t *testing.T) {
	s := ic.Plummer(2048, 19)
	var b Builder
	tree, err := b.BuildInto(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := b.BuildWalksInto(tree, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Validate(); err != nil { // first call may size the bitmap
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := ws.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Validate allocates %.1f objects/call after warmup, want 0", allocs)
	}
}

// TestParallelBuildBeatsSerial is the CI speedup gate (HOSTPATH_GATE=1): at
// N=32768 the worker-parallel Morton build must beat the serial one on wall
// clock. Guarded by an env var because timing assertions are only meaningful
// on a quiet multi-core machine (the dedicated CI job provides one).
func TestParallelBuildBeatsSerial(t *testing.T) {
	if os.Getenv("HOSTPATH_GATE") == "" {
		t.Skip("set HOSTPATH_GATE=1 to run the parallel-build speedup gate")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	const n = 32768
	s := ic.Plummer(n, 23)
	measure := func(workers int) time.Duration {
		b := &Builder{Workers: workers}
		if _, err := b.BuildInto(s, DefaultOptions()); err != nil { // warm arenas
			t.Fatal(err)
		}
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			if _, err := b.BuildInto(s, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial := measure(1)
	parallel := measure(runtime.GOMAXPROCS(0))
	t.Logf("N=%d: serial %v, parallel %v (%.2fx, %d workers)",
		n, serial, parallel, float64(serial)/float64(parallel), runtime.GOMAXPROCS(0))
	if parallel >= serial {
		t.Fatalf("parallel build (%v) not faster than serial (%v) at N=%d", parallel, serial, n)
	}
}
