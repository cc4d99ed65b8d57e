package gpusim

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testDev(t testing.TB) *Device {
	t.Helper()
	d, err := NewDevice(TestDevice())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLaunchParamValidation(t *testing.T) {
	d := testDev(t)
	noop := func(wi *Item) {}
	cases := []LaunchParams{
		{Global: 0, Local: 8},
		{Global: 8, Local: 0},
		{Global: 10, Local: 8}, // not a multiple
		{Global: 8, Local: 8, LDSFloats: 1 << 20},
	}
	for _, p := range cases {
		if _, err := d.Launch("bad", noop, p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
	}
}

func TestIDsAndGeometry(t *testing.T) {
	d := testDev(t)
	const global, local = 64, 16
	var hits [global]int32
	_, err := d.Launch("ids", func(wi *Item) {
		atomic.AddInt32(&hits[wi.GlobalID()], 1)
		if wi.GlobalID() != wi.GroupID()*local+wi.LocalID() {
			panic("id mismatch")
		}
		if wi.LocalSize() != local || wi.GlobalSize() != global || wi.NumGroups() != global/local {
			panic("geometry mismatch")
		}
	}, LaunchParams{Global: global, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("work-item %d executed %d times", i, h)
		}
	}
}

func TestBarrierLockstep(t *testing.T) {
	// Phase counter: after every barrier, all items of the group must have
	// completed the preceding phase. Item 0 writes, others read after the
	// barrier.
	d := testDev(t)
	const local = 16
	buf := d.NewBufferF32("phase", local)
	res, err := d.Launch("lockstep", func(wi *Item) {
		lds := wi.RawLDS()
		for phase := 0; phase < 10; phase++ {
			if wi.LocalID() == 0 {
				lds[0] = float32(phase)
			}
			wi.Barrier()
			if lds[0] != float32(phase) {
				panic("barrier did not synchronise")
			}
			wi.Barrier()
		}
		if wi.GroupID() == 0 {
			wi.StoreGlobalF32(buf, wi.LocalID(), 1)
		}
	}, LaunchParams{Global: local * 2, Local: local, LDSFloats: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Barriers != 20 {
		t.Errorf("group 0 crossed %d barriers, want 20", res.Groups[0].Barriers)
	}
}

func TestBarrierWithEarlyExit(t *testing.T) {
	// Half the items return before the barrier; the rest must not deadlock.
	d := testDev(t)
	done := int32(0)
	_, err := d.Launch("early-exit", func(wi *Item) {
		if wi.LocalID()%2 == 0 {
			return
		}
		wi.Barrier()
		atomic.AddInt32(&done, 1)
	}, LaunchParams{Global: 16, Local: 16})
	if err != nil {
		t.Fatal(err)
	}
	if done != 8 {
		t.Errorf("%d items passed the barrier, want 8", done)
	}
}

func TestLDSVisibilityAcrossBarrier(t *testing.T) {
	// Classic tile exchange: each item writes slot l, reads slot (l+1)%p
	// after the barrier.
	d := testDev(t)
	const local = 8
	out := d.NewBufferF32("out", local)
	_, err := d.Launch("exchange", func(wi *Item) {
		l := wi.LocalID()
		wi.StoreLDS(l, float32(l*10))
		wi.Barrier()
		v := wi.LoadLDS((l + 1) % local)
		wi.StoreGlobalF32(out, l, v)
	}, LaunchParams{Global: local, Local: local, LDSFloats: local})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < local; l++ {
		want := float32(((l + 1) % local) * 10)
		if got := out.HostF32()[l]; got != want {
			t.Errorf("slot %d = %g, want %g", l, got, want)
		}
	}
}

func TestLDSIsPerGroup(t *testing.T) {
	// Groups must not see each other's local memory.
	d := testDev(t)
	out := d.NewBufferF32("out", 16)
	_, err := d.Launch("lds-isolation", func(wi *Item) {
		if wi.LocalID() == 0 {
			wi.StoreLDS(0, float32(wi.GroupID()+1))
		}
		wi.Barrier()
		wi.StoreGlobalF32(out, wi.GlobalID(), wi.LoadLDS(0))
	}, LaunchParams{Global: 16, Local: 8, LDSFloats: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := out.HostF32()
	for i := 0; i < 8; i++ {
		if h[i] != 1 {
			t.Errorf("group 0 item %d saw %g", i, h[i])
		}
		if h[8+i] != 2 {
			t.Errorf("group 1 item %d saw %g", i, h[8+i])
		}
	}
}

func TestCounterAccounting(t *testing.T) {
	d := testDev(t)
	buf := d.NewBufferF32("data", 64)
	ibuf := d.NewBufferI32("idx", 64)
	res, err := d.Launch("counters", func(wi *Item) {
		// Each lane touches its own addresses; the scattered/coalesced
		// classification is the accessor's, not the index pattern's.
		g := wi.GlobalID()
		l := wi.LocalID()
		_ = wi.LoadGlobalF32(buf, g)    // 4 coalesced
		_ = wi.GatherGlobalF32(buf, g)  // 4 scattered
		wi.StoreGlobalF32(buf, g, 1)    // 4 coalesced
		wi.ScatterGlobalF32(buf, g, 2)  // 4 scattered
		_ = wi.LoadGlobalI32(ibuf, g)   // 4 coalesced
		_ = wi.GatherGlobalI32(ibuf, g) // 4 scattered
		wi.StoreGlobalI32(ibuf, g, 3)   // 4 coalesced
		wi.StoreLDS(l, 1)               // 4 LDS
		_ = wi.LoadLDS(l)               // 4 LDS
		wi.ChargeGlobal(100, 10)
		wi.ChargeLDS(8)
		wi.Flops(7)
		wi.Aux(3)
	}, LaunchParams{Global: 16, Local: 8, LDSFloats: 8})
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range res.Groups {
		const lanes = 8
		if g.BytesCoalesced != lanes*(12+4+100) {
			t.Errorf("group %d coalesced = %d", gi, g.BytesCoalesced)
		}
		if g.BytesScattered != lanes*(12+10) {
			t.Errorf("group %d scattered = %d", gi, g.BytesScattered)
		}
		if g.LDSBytes != lanes*16 {
			t.Errorf("group %d lds = %d", gi, g.LDSBytes)
		}
		if g.Flops != lanes*7 || g.AuxFlops != lanes*3 {
			t.Errorf("group %d flops = %d aux = %d", gi, g.Flops, g.AuxFlops)
		}
		// Uniform lanes, wavefront 8, one wavefront per group: max = 10.
		if g.WFMaxFlops != 10 {
			t.Errorf("group %d WFMaxFlops = %d, want 10", gi, g.WFMaxFlops)
		}
	}
}

func TestDivergenceUsesWavefrontMax(t *testing.T) {
	d := testDev(t) // wavefront 8
	res, err := d.Launch("divergent", func(wi *Item) {
		// Lane l performs l flops: wavefront max is 7 per 8-lane wavefront.
		wi.Flops(wi.LocalID())
	}, LaunchParams{Global: 16, Local: 16})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	// Two wavefronts of the 16-wide group: lanes 0-7 max 7, lanes 8-15 max 15.
	if g.WFMaxFlops != 7+15 {
		t.Errorf("WFMaxFlops = %d, want 22", g.WFMaxFlops)
	}
	if g.Flops != 2*(0+1+2+3+4+5+6+7+8+9+10+11+12+13+14+15)/2 {
		t.Errorf("Flops = %d", g.Flops)
	}
	// Divergence factor: wavefront-max total 22 vs convergent
	// mean-per-lane (120/16) * 2 wavefronts = 15.
	want := 22.0 / 15.0
	if got := res.Timing.DivergenceFactor; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("DivergenceFactor = %g, want %g", got, want)
	}
}

func TestDivergenceFactorUniformIsOne(t *testing.T) {
	d := testDev(t)
	res := launchUniform(t, d, 2, 100, 16, 0, 0)
	if got := res.Timing.DivergenceFactor; got < 1-1e-9 || got > 1+1e-9 {
		t.Errorf("uniform kernel DivergenceFactor = %g, want 1", got)
	}
}

func TestKernelPanicBecomesError(t *testing.T) {
	d := testDev(t)
	_, err := d.Launch("panics", func(wi *Item) {
		panic("boom")
	}, LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	// Out-of-range buffer access is also converted.
	buf := d.NewBufferF32("small", 4)
	_, err = d.Launch("overrun", func(wi *Item) {
		wi.StoreGlobalF32(buf, 100, 1)
	}, LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "small") {
		t.Fatalf("overrun err = %v", err)
	}
	// Type confusion too.
	_, err = d.Launch("confused", func(wi *Item) {
		wi.LoadGlobalI32(buf, 0)
	}, LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "int access") {
		t.Fatalf("type confusion err = %v", err)
	}
}

func TestLaunchIsDeterministic(t *testing.T) {
	// Same kernel twice: identical buffer contents and counters.
	run := func() (*Result, []float32) {
		d := testDev(t)
		in := d.NewBufferF32("in", 64)
		out := d.NewBufferF32("out", 64)
		for i := range in.HostF32() {
			in.HostF32()[i] = float32(i)
		}
		res, err := d.Launch("det", func(wi *Item) {
			var sum float32
			for j := 0; j < 64; j++ {
				sum += wi.LoadGlobalF32(in, j)
			}
			wi.Flops(64)
			wi.StoreGlobalF32(out, wi.GlobalID(), sum*float32(wi.GlobalID()))
		}, LaunchParams{Global: 64, Local: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res, append([]float32(nil), out.HostF32()...)
	}
	r1, o1 := run()
	r2, o2 := run()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("output %d differs: %g vs %g", i, o1[i], o2[i])
		}
	}
	if r1.Timing.KernelSeconds != r2.Timing.KernelSeconds {
		t.Errorf("modelled times differ: %g vs %g", r1.Timing.KernelSeconds, r2.Timing.KernelSeconds)
	}
	if r1.TotalFlops() != r2.TotalFlops() {
		t.Errorf("flop counts differ")
	}
}

func TestBufferAllocation(t *testing.T) {
	d := testDev(t)
	f := d.NewBufferF32("f", 10)
	i := d.NewBufferI32("i", 5)
	if f.Len() != 10 || i.Len() != 5 {
		t.Error("lengths wrong")
	}
	if !f.IsFloat() || i.IsFloat() {
		t.Error("type flags wrong")
	}
	if f.Bytes() != 40 || i.Bytes() != 20 {
		t.Error("bytes wrong")
	}
	if d.Allocated() != 60 {
		t.Errorf("Allocated = %d", d.Allocated())
	}
	if f.Name() != "f" {
		t.Error("name wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("HostI32 on float buffer did not panic")
			}
		}()
		f.HostI32()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative size did not panic")
			}
		}()
		d.NewBufferF32("neg", -1)
	}()
}

func TestDroppedBufferIsCollected(t *testing.T) {
	// The device tallies allocations but holds no buffer, so a buffer its
	// caller drops (a superseded grow-only plan buffer) is garbage.
	d := testDev(t)
	defer runtime.KeepAlive(d) // the device outlives the buffer
	collected := make(chan struct{})
	b := d.NewBufferF32("dropped", 1<<16)
	runtime.SetFinalizer(b, func(*Buffer) { close(collected) })
	b = nil
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			if d.Allocated() != 1<<18 {
				t.Errorf("Allocated = %d after collection, want %d", d.Allocated(), 1<<18)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("dropped buffer was never collected: the device still references it")
}

func TestDeviceConfigValidation(t *testing.T) {
	good := TestDevice()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*DeviceConfig){
		func(c *DeviceConfig) { c.ComputeUnits = 0 },
		func(c *DeviceConfig) { c.LanesPerCU = 0 },
		func(c *DeviceConfig) { c.WavefrontSize = 7 }, // not multiple of lanes
		func(c *DeviceConfig) { c.ClockHz = 0 },
		func(c *DeviceConfig) { c.VLIWPacking = 0 },
		func(c *DeviceConfig) { c.VLIWPacking = 1.5 },
		func(c *DeviceConfig) { c.HideWavefronts = 0 },
		func(c *DeviceConfig) { c.LDSPerCU = 0 },
	}
	for i, m := range mutations {
		c := TestDevice()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewDevice(c); err == nil {
			t.Errorf("NewDevice accepted mutation %d", i)
		}
	}
}

func TestHD5850Peak(t *testing.T) {
	c := HD5850()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1440 ALUs x 2 flops x 0.725 GHz = 2088 GFLOPS.
	if p := c.PeakGFLOPS(); p < 2087 || p > 2089 {
		t.Errorf("peak = %g, want ~2088", p)
	}
}

func TestMustNewDevicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewDevice accepted bad config")
		}
	}()
	bad := TestDevice()
	bad.ComputeUnits = 0
	MustNewDevice(bad)
}

func TestAtomicAddGlobal(t *testing.T) {
	// Histogram: all work-items increment shared counters; the total must
	// be exact despite concurrent execution.
	d := testDev(t)
	hist := d.NewBufferI32("hist", 4)
	res, err := d.Launch("histogram", func(wi *Item) {
		bin := wi.GlobalID() % 4
		wi.AtomicAddGlobalI32(hist, bin, 1)
	}, LaunchParams{Global: 64, Local: 8})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		if hist.HostI32()[b] != 16 {
			t.Errorf("bin %d = %d, want 16", b, hist.HostI32()[b])
		}
	}
	// Charged as scattered traffic.
	var scattered int64
	for _, g := range res.Groups {
		scattered += g.BytesScattered
	}
	if scattered != 64*8 {
		t.Errorf("scattered bytes = %d, want 512", scattered)
	}
	// Type check still applies.
	fbuf := d.NewBufferF32("f", 4)
	if _, err := d.Launch("bad", func(wi *Item) {
		wi.AtomicAddGlobalI32(fbuf, 0, 1)
	}, LaunchParams{Global: 8, Local: 8}); err == nil {
		t.Error("atomic on float buffer accepted")
	}
}

func TestLanesRunInAscendingOrderBetweenBarriers(t *testing.T) {
	// A deliberately racy kernel: every lane appends its local id to an
	// LDS log with a non-atomic read-modify-write of the log length, over
	// three barrier phases. Lane 2 leaves after the first phase. Lockstep
	// execution makes the log exactly the live lanes in ascending order,
	// phase after phase, on every launch.
	d := testDev(t)
	const local, groups, phases = 8, 4, 3
	out := d.NewBufferF32("log", groups*(1+phases*local))
	kernel := func(wi *Item) {
		lds := wi.RawLDS()
		for ph := 0; ph < phases; ph++ {
			if ph == 1 && wi.LocalID() == 2 {
				return
			}
			n := int(lds[0])
			lds[1+n] = float32(wi.LocalID())
			lds[0] = float32(n + 1)
			wi.Barrier()
		}
		if wi.LocalID() == 0 {
			base := wi.GroupID() * (1 + phases*local)
			for i := 0; i < 1+phases*local; i++ {
				wi.StoreGlobalF32(out, base+i, lds[i])
			}
		}
	}
	var want []float32
	for g := 0; g < groups; g++ {
		log := []float32{0}
		for ph := 0; ph < phases; ph++ {
			for l := 0; l < local; l++ {
				if ph == 0 || l != 2 {
					log = append(log, float32(l))
				}
			}
		}
		log[0] = float32(len(log) - 1)
		for len(log) < 1+phases*local {
			log = append(log, 0)
		}
		want = append(want, log...)
	}
	for run := 0; run < 20; run++ {
		clear(out.HostF32())
		if _, err := d.Launch("racy-log", kernel, LaunchParams{
			Global: groups * local, Local: local, LDSFloats: 1 + phases*local,
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out.HostF32() {
			if v != want[i] {
				t.Fatalf("launch %d: log[%d] = %g, want %g (log %v)", run, i, v, want[i], out.HostF32())
			}
		}
	}
}

func TestLanePanicAtBarrierReportsLaneAndLeaksNothing(t *testing.T) {
	// Lane 5 of group 1 panics while its group's other lanes wait at a
	// barrier. The launch must fail naming that lane, and every lane
	// coroutine must be gone once Launch returns.
	d := testDev(t)
	before := runtime.NumGoroutine()
	_, err := d.Launch("panic-at-barrier", func(wi *Item) {
		if wi.GroupID() == 1 && wi.LocalID() == 5 {
			panic("lane fault")
		}
		wi.Barrier()
		wi.Barrier()
	}, LaunchParams{Global: 64, Local: 16})
	if err == nil {
		t.Fatal("panicking lane did not fail the launch")
	}
	for _, part := range []string{"lane fault", "global=21", "local=5", "group=1"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not mention %q", err, part)
		}
	}
	// Worker goroutines may still be exiting after their last group.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the launch, %d before: lane coroutines leaked", n, before)
	}
}

func TestLaunchAllocsIndependentOfGroupCount(t *testing.T) {
	// A launch allocates per worker and lane (coroutines, LDS), never per
	// work-item or per group.
	d := testDev(t)
	allocs := func(groups int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := d.Launch("barrier", func(wi *Item) {
				for k := 0; k < 4; k++ {
					wi.Barrier()
				}
			}, LaunchParams{Global: groups * 16, Local: 16, LDSFloats: 16}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(256)
	if large > small {
		t.Errorf("allocs per launch grew from %v at 16 groups to %v at 256", small, large)
	}
	if limit := float64(runtime.GOMAXPROCS(0) * 16 * 16); small > limit {
		t.Errorf("%v allocs per launch, want at most %v (workers x lanes x 16)", small, limit)
	}
}

func TestGroupBarrierCountsCalls(t *testing.T) {
	// Group g crosses g+1 barriers; each Group.Barrier call is one. The
	// group and its lanes report the launch geometry.
	d := testDev(t)
	const groups = 5
	res, err := d.LaunchGroups("barriers", func(g *Group) {
		if g.LocalSize() != 8 || g.NumGroups() != groups || g.GlobalSize() != groups*8 {
			panic("geometry mismatch")
		}
		for l := 0; l < g.LocalSize(); l++ {
			if wi := g.Lane(l); wi.LocalID() != l || wi.GroupID() != g.ID() || wi.GlobalID() != g.ID()*8+l {
				panic("lane id mismatch")
			}
		}
		for k := 0; k <= g.ID(); k++ {
			g.Barrier()
		}
	}, LaunchParams{Global: groups * 8, Local: 8})
	if err != nil {
		t.Fatal(err)
	}
	for gid, c := range res.Groups {
		if c.Barriers != int64(gid+1) {
			t.Errorf("group %d crossed %d barriers, want %d", gid, c.Barriers, gid+1)
		}
	}
}

func TestGroupKernelMatchesPerItemTwin(t *testing.T) {
	// One kernel written both ways: stage a value per lane through LDS,
	// tree-reduce with divergent charges, and let lane 0 store the sum,
	// while odd lanes of odd groups leave before the reduction. Both forms
	// must produce the same output, the same GroupCost for every group and
	// the same modelled timing.
	const local, groups = 16, 6
	p := LaunchParams{Global: groups * local, Local: local, LDSFloats: local}
	run := func(launch func(d *Device, in, out *Buffer) (*Result, error)) (*Result, []float32) {
		d := testDev(t)
		in := d.NewBufferF32("in", groups*local)
		out := d.NewBufferF32("out", groups)
		for i := range in.HostF32() {
			in.HostF32()[i] = float32(i%7) + 0.25
		}
		res, err := launch(d, in, out)
		if err != nil {
			t.Fatal(err)
		}
		return res, append([]float32(nil), out.HostF32()...)
	}
	// leaves reports whether lane l of group gid returns before the
	// reduction; it never matters for the lanes the reduction reads.
	leaves := func(gid, l int) bool { return gid%2 == 1 && l >= local/2 && l%2 == 1 }

	itemRes, itemOut := run(func(d *Device, in, out *Buffer) (*Result, error) {
		return d.Launch("twin", func(wi *Item) {
			l := wi.LocalID()
			wi.StoreLDS(l, wi.LoadGlobalF32(in, wi.GlobalID()))
			wi.Aux(l % 3)
			wi.Barrier()
			if leaves(wi.GroupID(), l) {
				return
			}
			for stride := local / 2; stride > 0; stride /= 2 {
				if l < stride {
					wi.StoreLDS(l, wi.LoadLDS(l)+wi.LoadLDS(l+stride))
					wi.Flops(1)
				}
				wi.Barrier()
			}
			if l == 0 {
				wi.ScatterGlobalF32(out, wi.GroupID(), wi.LoadLDS(0))
			}
		}, p)
	})
	groupRes, groupOut := run(func(d *Device, in, out *Buffer) (*Result, error) {
		return d.LaunchGroups("twin", func(g *Group) {
			for l := 0; l < local; l++ {
				wi := g.Lane(l)
				wi.StoreLDS(l, wi.LoadGlobalF32(in, wi.GlobalID()))
				wi.Aux(l % 3)
			}
			g.Barrier()
			for stride := local / 2; stride > 0; stride /= 2 {
				for l := 0; l < stride; l++ {
					wi := g.Lane(l)
					wi.StoreLDS(l, wi.LoadLDS(l)+wi.LoadLDS(l+stride))
					wi.Flops(1)
				}
				g.Barrier()
			}
			g.Lane(0).ScatterGlobalF32(out, g.ID(), g.Lane(0).LoadLDS(0))
		}, p)
	})
	for gid := range itemRes.Groups {
		if itemRes.Groups[gid] != groupRes.Groups[gid] {
			t.Errorf("group %d: per-item %+v, group form %+v", gid, itemRes.Groups[gid], groupRes.Groups[gid])
		}
		if itemOut[gid] != groupOut[gid] {
			t.Errorf("group %d: per-item sum %g, group form %g", gid, itemOut[gid], groupOut[gid])
		}
	}
	if !reflect.DeepEqual(itemRes.Timing, groupRes.Timing) {
		t.Errorf("timing differs: per-item %+v, group form %+v", itemRes.Timing, groupRes.Timing)
	}
}

func TestGroupPrivateIsZeroedPerCall(t *testing.T) {
	// Every group sees zeroed private memory although the worker reuses it.
	d := testDev(t)
	const local, groups = 8, 32
	out := d.NewBufferF32("dirty", groups)
	_, err := d.LaunchGroups("private", func(g *Group) {
		priv := g.Private(3)
		if len(priv) != 3*local {
			panic("private length")
		}
		var dirty float32
		for _, v := range priv {
			dirty += v
		}
		g.Lane(0).StoreGlobalF32(out, g.ID(), dirty)
		for i := range priv {
			priv[i] = float32(g.ID() + 1)
		}
	}, LaunchParams{Global: groups * local, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	for gid, v := range out.HostF32() {
		if v != 0 {
			t.Errorf("group %d saw private memory summing to %g", gid, v)
		}
	}
}

func TestGroupPanicReportsLaneAndLeaksNothing(t *testing.T) {
	d := testDev(t)
	before := runtime.NumGoroutine()
	_, err := d.LaunchGroups("group-panic", func(g *Group) {
		for l := 0; l < g.LocalSize(); l++ {
			g.Lane(l).Flops(1)
			if g.ID() == 1 && l == 5 {
				panic("lane fault")
			}
		}
		g.Barrier()
	}, LaunchParams{Global: 64, Local: 16})
	if err == nil {
		t.Fatal("panicking group kernel did not fail the launch")
	}
	for _, part := range []string{"group-panic", "lane fault", "global=21", "local=5", "group=1"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not mention %q", err, part)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the launch, %d before", n, before)
	}

	// A panic before the kernel selects any lane names only the group.
	_, err = d.LaunchGroups("no-lane", func(g *Group) {
		panic("early fault")
	}, LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "group=0 panicked: early fault") || strings.Contains(err.Error(), "local=") {
		t.Errorf("panic before any lane: err = %v", err)
	}

	// A per-item barrier inside a group kernel is a kernel bug, reported as
	// one rather than as a nil call.
	_, err = d.LaunchGroups("item-barrier", func(g *Group) {
		g.Lane(2).Barrier()
	}, LaunchParams{Global: 8, Local: 8})
	if err == nil || !strings.Contains(err.Error(), "Group.Barrier") || !strings.Contains(err.Error(), "local=2") {
		t.Errorf("Item.Barrier in a group kernel: err = %v", err)
	}
}

func TestGroupLaunchAllocsIndependentOfGroupCount(t *testing.T) {
	// A group-form launch allocates per worker (lanes, LDS, private
	// memory), never per group or per lane.
	d := testDev(t)
	allocs := func(groups int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := d.LaunchGroups("barrier", func(g *Group) {
				priv := g.Private(2)
				for k := 0; k < 4; k++ {
					for l := 0; l < g.LocalSize(); l++ {
						priv[2*l] += g.LDS()[l]
					}
					g.Barrier()
				}
			}, LaunchParams{Global: groups * 16, Local: 16, LDSFloats: 16}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(256)
	if large > small {
		t.Errorf("allocs per launch grew from %v at 16 groups to %v at 256", small, large)
	}
	// Fewer than one allocation per lane of a worker: 16 for the launch,
	// 8 per worker.
	if limit := float64(16 + runtime.GOMAXPROCS(0)*8); small > limit {
		t.Errorf("%v allocs per launch, want at most %v (16 + 8 per worker)", small, limit)
	}
}

func TestGroupBarrierYieldsToOtherGoroutines(t *testing.T) {
	// On one P, a single-group launch of ~10 ms runs on the calling
	// goroutine. A competing goroutine that yields after every tick gets
	// a turn whenever the worker yields at a barrier (at most every
	// yieldEvery); without that yield it would run only when the scheduler
	// preempts the worker, about every 10 ms.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ticks atomic.Int64
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			ticks.Add(1)
			runtime.Gosched()
		}
	}()
	defer func() {
		stop.Store(true)
		<-done
	}()
	runtime.Gosched() // let the ticker start

	const phases = 50
	var during int64
	d := testDev(t)
	_, err := d.LaunchGroups("long", func(g *Group) {
		start := ticks.Load()
		for ph := 0; ph < phases; ph++ {
			for spin := time.Now(); time.Since(spin) < 2*yieldEvery; {
			}
			g.Barrier()
		}
		during = ticks.Load() - start
	}, LaunchParams{Global: 8, Local: 8})
	if err != nil {
		t.Fatal(err)
	}
	if during < phases/2 {
		t.Errorf("competing goroutine ticked %d times during %d barrier phases of %v, want at least %d",
			during, phases, 2*yieldEvery, phases/2)
	}
}
