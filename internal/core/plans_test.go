package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/ic"
	"repro/internal/pp"
	"repro/internal/vec"
)

func newHD5850Context(t testing.TB) *cl.Context {
	t.Helper()
	ctx, err := cl.NewContext(gpusim.HD5850())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return ctx
}

// buildBHHostData runs the CPU half of the treecode pipeline into a fresh,
// unpooled host-data value, for tests that drive kernels by hand.
func buildBHHostData(s *body.System, opt bh.Options, groupCap, maxBodies int, host gpusim.HostModel) (*bhHostData, error) {
	d := &bhHostData{}
	if err := d.build(s, opt, groupCap, maxBodies, host, HostPolicy{}, 0); err != nil {
		return nil, err
	}
	return d, nil
}

// TestPPPlansMatchScalar validates the PP plans' accelerations against the
// scalar CPU reference.
func TestPPPlansMatchScalar(t *testing.T) {
	params := pp.DefaultParams()
	for _, n := range []int{1, 7, 64, 100, 256, 1000} {
		sys := ic.Plummer(n, 42)
		want := sys.Clone()
		pp.Scalar(want, params)

		ctx := newHD5850Context(t)
		for _, plan := range []Plan{newIParallel(ctx, params), newJParallel(ctx, params)} {
			got := sys.Clone()
			prof, err := plan.Accel(got)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, plan.Name(), err)
			}
			if prof.N != n {
				t.Errorf("n=%d %s: profile N = %d", n, plan.Name(), prof.N)
			}
			if prof.Interactions < int64(n)*int64(n) {
				t.Errorf("n=%d %s: interactions %d < n^2", n, plan.Name(), prof.Interactions)
			}
			if e := pp.MaxRelError(want.Acc, got.Acc, 1e-3); e > 2e-4 {
				t.Errorf("n=%d %s: max rel acceleration error %g", n, plan.Name(), e)
			}
		}
	}
}

// TestBHPlansMatchWalkEval validates the BH plans against the CPU
// evaluation of their own walk lists (identical arithmetic) and against the
// direct sum (within treecode accuracy).
func TestBHPlansMatchWalkEval(t *testing.T) {
	opt := bh.DefaultOptions()
	for _, n := range []int{64, 333, 1024, 4096} {
		sys := ic.Plummer(n, 7)

		direct := sys.Clone()
		pp.Scalar(direct, pp.Params{G: opt.G, Eps: opt.Eps})

		ctx := newHD5850Context(t)
		for _, plan := range []Plan{newWParallel(ctx, opt), newJWParallel(ctx, opt)} {
			got := sys.Clone()
			prof, err := plan.Accel(got)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, plan.Name(), err)
			}

			// Exact-arithmetic reference: CPU evaluation of the same walks.
			capFor := 64
			if plan.Name() == "jw-parallel" {
				capFor = 24
			}
			o := opt
			if o.LeafCap > capFor {
				o.LeafCap = capFor
			}
			tree, err := bh.Build(sys.Clone(), o)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			_ = tree

			// Accuracy against direct sum: bounded by theta.
			if e := pp.RMSRelError(direct.Acc, got.Acc, 1e-3); e > 0.05 {
				t.Errorf("n=%d %s: RMS rel error vs direct sum %g", n, plan.Name(), e)
			}
			if prof.Interactions <= 0 {
				t.Errorf("n=%d %s: no interactions recorded", n, plan.Name())
			}
			if prof.Interactions >= int64(n)*int64(n) && n >= 1024 {
				t.Errorf("n=%d %s: interactions %d not sub-quadratic", n, plan.Name(), prof.Interactions)
			}
		}
	}
}

// TestBHPlanExactVsWalkEval checks bitwise agreement between the jw kernel
// and the CPU walk evaluation when both consume identical lists.
func TestBHPlanExactVsWalkEval(t *testing.T) {
	opt := bh.DefaultOptions()
	n := 2048
	sys := ic.Plummer(n, 99)

	ctx := newHD5850Context(t)
	plan := newJWParallel(ctx, opt)
	gpu := sys.Clone()
	if _, err := plan.Accel(gpu); err != nil {
		t.Fatalf("jw Accel: %v", err)
	}

	// Rebuild the same walks on the CPU (same options as the plan uses).
	o := opt
	if o.LeafCap > plan.GroupCap {
		o.LeafCap = plan.GroupCap
	}
	cpu := sys.Clone()
	tree, err := bh.Build(cpu, o)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ws, err := tree.BuildWalks(plan.GroupCap)
	if err != nil {
		t.Fatalf("BuildWalks: %v", err)
	}
	ws.Eval()

	for i := range cpu.Acc {
		if cpu.Acc[i] != gpu.Acc[i] {
			t.Fatalf("body %d: cpu walk eval %v != gpu jw %v", i, cpu.Acc[i], gpu.Acc[i])
		}
	}
}

// TestJWQueueingCoversAllBodies stresses the queue balancing with odd sizes.
func TestJWQueueingCoversAllBodies(t *testing.T) {
	opt := bh.DefaultOptions()
	for _, n := range []int{65, 129, 1023, 2047} {
		sys := ic.UniformCube(n, 2.0, uint64(n))
		ctx := newHD5850Context(t)
		plan := newJWParallel(ctx, opt)
		plan.QueueTarget = 5 // force long queues
		got := sys.Clone()
		if _, err := plan.Accel(got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		direct := sys.Clone()
		pp.Scalar(direct, pp.Params{G: opt.G, Eps: opt.Eps})
		if e := pp.RMSRelError(direct.Acc, got.Acc, 1e-3); e > 0.05 {
			t.Errorf("n=%d: RMS rel error %g", n, e)
		}
	}
}

// TestPlansBitwiseGolden locks the refactored stage-graph path to the
// pre-pipeline seed: for every plan, the accelerations must be
// byte-identical (FNV-1a 64 over the little-endian float32 bits of Acc in
// body order) and the modelled kernel/transfer seconds must match the values
// captured from the monolithic Accel implementations on an HD5850 with
// ic.Plummer(n, 42). Any change to enqueue order, kernel arithmetic, or the
// cost model shows up here.
func TestPlansBitwiseGolden(t *testing.T) {
	golden := []struct {
		plan            string
		n               int
		accHash         uint64
		kernelSeconds   float64
		transferSeconds float64
	}{
		{"i-parallel", 1024, 0xb93a7be5a8127779, 0.00015556444938820912, 3.5957818181818176e-05},
		{"j-parallel", 1024, 0x88c7832efc0aec54, 0.00018178174137931054, 3.5957818181818176e-05},
		{"w-parallel", 1024, 0x049641017ef77c6e, 0.0013016855431034482, 9.6629090909090788e-05},
		{"jw-parallel", 1024, 0xad5478fe19182552, 0.0001231860734149054, 0.00014650181818181846},
		{"i-parallel", 4096, 0x0b15d52f29d51978, 0.00059401641824249158, 5.3831272727272705e-05},
		{"j-parallel", 4096, 0x19b679bffcf1c15d, 0.0022760629655172505, 5.3831272727272813e-05},
		{"w-parallel", 4096, 0x0dc94662b251ca68, 0.0044576519224137929, 0.00027896945454545293},
		{"jw-parallel", 4096, 0xaa818f6a27219b31, 0.0010617280978865405, 0.00051479272727272644},
	}
	newPlan := func(name string, ctx *cl.Context) Plan {
		switch name {
		case "i-parallel":
			return newIParallel(ctx, pp.DefaultParams())
		case "j-parallel":
			return newJParallel(ctx, pp.DefaultParams())
		case "w-parallel":
			return newWParallel(ctx, bh.DefaultOptions())
		case "jw-parallel":
			return newJWParallel(ctx, bh.DefaultOptions())
		}
		t.Fatalf("unknown plan %q", name)
		return nil
	}
	for _, g := range golden {
		sys := ic.Plummer(g.n, 42)
		plan := newPlan(g.plan, newHD5850Context(t))
		prof, err := plan.Accel(sys)
		if err != nil {
			t.Fatalf("%s n=%d: %v", g.plan, g.n, err)
		}

		// FNV-1a 64 over the acceleration bytes, exactly as captured.
		const offset64, prime64 = 0xcbf29ce484222325, 0x1099511628211
		h := uint64(offset64)
		for _, a := range sys.Acc {
			for _, f := range [3]float32{a.X, a.Y, a.Z} {
				bits := math.Float32bits(f)
				for s := 0; s < 32; s += 8 {
					h ^= uint64(byte(bits >> s))
					h *= prime64
				}
			}
		}
		if h != g.accHash {
			t.Errorf("%s n=%d: acceleration hash %#016x, want %#016x (forces changed)",
				g.plan, g.n, h, g.accHash)
		}

		relClose := func(got, want float64) bool {
			d := got - want
			if d < 0 {
				d = -d
			}
			return d <= 1e-12*math.Abs(want)
		}
		if !relClose(prof.Profile.KernelSeconds, g.kernelSeconds) {
			t.Errorf("%s n=%d: KernelSeconds %.17g, want %.17g",
				g.plan, g.n, prof.Profile.KernelSeconds, g.kernelSeconds)
		}
		if !relClose(prof.Profile.TransferSeconds, g.transferSeconds) {
			t.Errorf("%s n=%d: TransferSeconds %.17g, want %.17g",
				g.plan, g.n, prof.Profile.TransferSeconds, g.transferSeconds)
		}
		if prof.Schedule == nil || len(prof.Schedule.Spans) == 0 {
			t.Errorf("%s n=%d: no executed schedule on the profile", g.plan, g.n)
		}
	}
}

// launchCostHash is FNV-1a 64 over every launch's per-group counters, in
// launch and group order, each field as a little-endian int64.
func launchCostHash(launches []*gpusim.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range launches {
		for _, c := range r.Groups {
			for _, v := range [...]int64{c.WFMaxFlops, c.Flops, c.AuxFlops,
				c.BytesCoalesced, c.BytesScattered, c.LDSBytes, c.Barriers} {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// vecHash is FNV-1a 64 over the little-endian float32 bits of vs.
func vecHash(vs ...[]vec.V3) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range vs {
		for _, a := range v {
			for _, f := range [3]float32{a.X, a.Y, a.Z} {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// profileHash is FNV-1a 64 over the five cl.Profile fields (float64 bits or
// int64, little-endian), the launch count, and whether a schedule is
// attached.
func profileHash(rp *RunProfile) uint64 {
	h := fnv.New64a()
	var b [8]byte
	p := rp.Profile
	for _, v := range [...]uint64{math.Float64bits(p.KernelSeconds), math.Float64bits(p.TransferSeconds),
		math.Float64bits(p.HostSeconds), uint64(p.TransferBytes), uint64(p.KernelFlops),
		uint64(len(rp.Launches))} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if rp.Schedule == nil {
		h.Write([]byte{0})
	} else {
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// multiProfile is the modelled accounting of a K >= 2 device run: the
// profile columns, the launch count, and Engine.ExecutedSeconds after two
// evaluations. Multi-device seconds are compared within 1e-12 relative, not
// bitwise: they are folded from several queues' timelines.
type multiProfile struct {
	kernel, transfer, host float64
	bytes, flops           int64
	launches               int
	executed               float64
}

// TestLaunchCostsGolden pins every launch's []GroupCost (barriers included),
// the outputs of each Go kernel and the run's modelled profile, so a rewrite
// of a kernel, of the executor or of a plan's host code must reproduce the
// counted work of every lane, its float32 arithmetic and the accounting bit
// for bit. The values were captured from the per-work-item kernels on
// ic.Plummer(n, 42): the force plans on an HD5850, the jerk kernels on the
// test device with partial active sets. Single-queue rows pin the profile
// by hash; multi-device rows pin it by value (see multiProfile).
func TestLaunchCostsGolden(t *testing.T) {
	golden := []struct {
		name              string
		n                 int
		costHash, outHash uint64
		profHash          uint64        // single-queue rows
		multi             *multiProfile // multi-device rows
	}{
		{"i-parallel", 1024, 0xdd6afd264d2b0565, 0x9359642c0928ef79, 0x9ad2461ac5c1662a, nil},
		{"j-parallel", 1024, 0xd8b04750180f1325, 0x39c4b3fa720a2b86, 0x94dd4614d827ec6b, nil},
		{"w-parallel", 1024, 0x97b983a4368e24a5, 0x432d6bfae2a3b3dc, 0x6ea217c63d50be48, nil},
		{"jw-parallel", 1024, 0xe9e19908a9b9acc6, 0x09427c0c3ebf47a6, 0x59b7eb9c7967183e, nil},
		{"i-parallel", 4096, 0x4372a97259596305, 0x3bdb5f34a7699f22, 0x5f81d38b2486d2f5, nil},
		{"j-parallel", 4096, 0x9e34d602cf562325, 0x3d5658b54c339595, 0x38eda0d15ba3d11a, nil},
		{"w-parallel", 4096, 0x79394afa57bd8e71, 0x6edb3666efc0bd26, 0x2f2d4767328a7a87, nil},
		{"jw-parallel", 4096, 0x884c7c5a55664df8, 0xf5bf66af743cb74b, 0x8045d4b8fbf3736a, nil},
		{"jw-unstaged", 4096, 0x8048db59b5a2fcf0, 0xf5bf66af743cb74b, 0x41ae0f048b6371e6, nil},
		{"multi-jw-x2", 4096, 0x6c7ef285af92235e, 0xf5bf66af743cb74b, 0, &multiProfile{
			0.0005555260066740823, 0.0005146465454545456, 0.00754842, 4506100, 464031376, 2, 0.017237185104257258}},
		{"jw-parallel-x4", 4096, 0xbcf81adc509ac756, 0xf5bf66af743cb74b, 0, &multiProfile{
			0.0003147005561735262, 0.0005145527272727272, 0.00754842, 9010148, 464031376, 4, 0.01675534656689251}},
		{"jerk-i", 512, 0x1e9addfe8ac41070, 0xcc512a1729896c9e, 0xafa2c01061fa204c, nil},
		{"jerk-j", 512, 0x43258cd92790ce35, 0xae8faeb425046c33, 0x43b844a505adfa97, nil},
	}
	run := func(name string, n int) (Plan, *RunProfile, uint64) {
		sys := ic.Plummer(n, 42)
		var plan Plan
		switch name {
		case "i-parallel":
			plan = newIParallel(newHD5850Context(t), pp.DefaultParams())
		case "j-parallel":
			plan = newJParallel(newHD5850Context(t), pp.DefaultParams())
		case "w-parallel":
			plan = newWParallel(newHD5850Context(t), bh.DefaultOptions())
		case "jw-parallel":
			plan = newJWParallel(newHD5850Context(t), bh.DefaultOptions())
		case "jw-unstaged":
			jw := newJWParallel(newHD5850Context(t), bh.DefaultOptions())
			jw.DisableLDSStaging = true
			plan = jw
		case "multi-jw-x2":
			plan = newJWDevices(t, bh.DefaultOptions(), 2)
		case "jw-parallel-x4":
			plan = newJWDevices(t, bh.DefaultOptions(), 4)
		case "jerk-i", "jerk-j":
			u := newJerkUnit(newTestContext(t), pp.Params{G: 1, Eps: 0.05})
			var active []int
			if name == "jerk-i" {
				// Every other body: above the i-parallel threshold, and
				// not a multiple of the group size.
				for i := 0; i < n; i += 2 {
					active = append(active, i)
				}
				active = append(active, n-1)
			} else {
				active = []int{0, 3, 17, 42, 100, 255, 256, n - 1}
			}
			if got, want := u.selectPlan(len(active)), name[len("jerk-"):]+"-parallel"; got != want {
				t.Fatalf("%s: selectPlan(%d) = %q, want %q", name, len(active), got, want)
			}
			jerk := make([]vec.V3, n)
			prof, err := u.eval(sys, active, jerk)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return nil, prof, vecHash(sys.Acc, jerk)
		default:
			t.Fatalf("unknown case %q", name)
		}
		prof, err := plan.Accel(sys)
		if err != nil {
			t.Fatalf("%s n=%d: %v", name, n, err)
		}
		return plan, prof, vecHash(sys.Acc)
	}
	for _, g := range golden {
		plan, prof, out := run(g.name, g.n)
		if len(prof.Launches) == 0 {
			t.Fatalf("%s n=%d: no launches on the profile", g.name, g.n)
		}
		if h := launchCostHash(prof.Launches); h != g.costHash {
			t.Errorf("%s n=%d: launch cost hash %#016x, want %#016x (per-group counters changed)",
				g.name, g.n, h, g.costHash)
		}
		if out != g.outHash {
			t.Errorf("%s n=%d: output hash %#016x, want %#016x (kernel arithmetic changed)",
				g.name, g.n, out, g.outHash)
		}
		if g.multi == nil {
			if h := profileHash(prof); h != g.profHash {
				t.Errorf("%s n=%d: profile hash %#016x, want %#016x (modelled accounting changed)",
					g.name, g.n, h, g.profHash)
			}
			continue
		}
		eng := NewEngine(plan)
		for i := 0; i < 2; i++ {
			if _, err := eng.Accel(ic.Plummer(g.n, 42)); err != nil {
				t.Fatalf("%s n=%d: engine: %v", g.name, g.n, err)
			}
		}
		p := prof.Profile
		got := multiProfile{p.KernelSeconds, p.TransferSeconds, p.HostSeconds,
			p.TransferBytes, p.KernelFlops, len(prof.Launches), eng.ExecutedSeconds()}
		want := *g.multi
		relClose := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
		if !relClose(got.kernel, want.kernel) || !relClose(got.transfer, want.transfer) ||
			!relClose(got.host, want.host) || !relClose(got.executed, want.executed) ||
			got.bytes != want.bytes || got.flops != want.flops || got.launches != want.launches ||
			prof.Schedule != nil {
			t.Errorf("%s n=%d: profile %+v (schedule %v), want %+v", g.name, g.n, got, prof.Schedule != nil, want)
		}
	}
}
