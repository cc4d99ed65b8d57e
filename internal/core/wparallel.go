package core

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/pp"
)

// WParallel is Hamada et al.'s SC'09 multiple-walk plan for the Barnes-Hut
// treecode: the CPU builds the tree and the group walks; on the GPU, each
// work-group executes exactly one walk, with the group's lanes carrying the
// walk's bodies and every lane streaming the walk's interaction list from
// global memory.
//
// Its two structural costs — the ones jw-parallel removes — are:
//
//  1. Every active lane re-reads every list entry (index + float4) from
//     global memory, so the traffic is bodies x list rather than list.
//  2. One work-group per walk: lanes beyond the walk's body count idle, and
//     walks shorter than the group's list are pure per-group overhead; the
//     spread of list lengths across groups shows up as load imbalance.
type WParallel struct {
	Opt bh.Options
	// GroupCap is the maximum bodies per walk. The plan sizes it to the
	// work-group so lanes are as full as a one-walk-per-group mapping
	// allows. Default 64.
	GroupCap int
	// LocalSize is the work-group size (default 64, one wavefront).
	LocalSize int
	// Host models the CPU half of the pipeline.
	Host gpusim.HostModel
	// HostWorkers caps the parallelism of the host-side build (0 =
	// GOMAXPROCS, 1 = serial).
	HostWorkers int
	// Policy is the refit-vs-rebuild hook; the zero value rebuilds every
	// step.
	Policy HostPolicy

	planBase

	// data is the pooled host-side product of the build; steps 2..K reuse
	// its arenas.
	data bhHostData

	bufSrc, bufPos, bufLists, bufDesc, bufAcc *gpusim.Buffer
	hostAcc                                   []float32
}

// newWParallel creates the plan on the given context with its defaults.
func newWParallel(ctx *cl.Context, opt bh.Options) *WParallel {
	return &WParallel{
		Opt:       opt,
		GroupCap:  64,
		LocalSize: 64,
		Host:      gpusim.PaperHost(),
		planBase:  newPlanBase(ctx),
	}
}

// Name implements Plan.
func (p *WParallel) Name() string { return "w-parallel" }

// Kind implements Plan.
func (p *WParallel) Kind() Kind { return KindBH }

// SetObs implements obs.Observable.
func (p *WParallel) SetObs(o *obs.Obs) {
	p.setObs(o)
	p.Opt.Trace = o.Tracer()
}

// SetHostWorkers caps the host-side build parallelism.
func (p *WParallel) SetHostWorkers(n int) { p.HostWorkers = n }

// kernel returns the w-parallel force kernel bound to the current buffers.
func (p *WParallel) kernel() gpusim.GroupFunc {
	g := p.Opt.G
	eps2 := p.Opt.Eps * p.Opt.Eps
	bufSrc, bufPos, bufLists, bufDesc, bufAcc := p.bufSrc, p.bufPos, p.bufLists, p.bufDesc, p.bufAcc
	return func(grp *gpusim.Group) {
		w := grp.ID() // one work-group per walk
		lane0 := grp.Lane(0)
		desc := lane0.RawGlobalI32(bufDesc)
		lists := lane0.RawGlobalI32(bufLists)
		src := lane0.RawGlobalF32(bufSrc)
		posm := lane0.RawGlobalF32(bufPos)
		acc := lane0.RawGlobalF32(bufAcc)

		lane0.ChargeGlobal(16, 0) // descriptor broadcast
		first := int(desc[w*bhDescStride+0])
		count := int(desc[w*bhDescStride+1])
		base := int(desc[w*bhDescStride+2])
		llen := int(desc[w*bhDescStride+3])

		// Lanes at or beyond count idle: the walk has fewer bodies than the
		// group.
		for l := 0; l < min(count, grp.LocalSize()); l++ {
			wi := grp.Lane(l)
			slot := first + l
			wi.ChargeGlobal(16, 0)
			px, py, pz := posm[4*slot], posm[4*slot+1], posm[4*slot+2]

			// Per-lane streaming of the shared list: each lane pays for the
			// entry index (4B) and the source float4 (16B) itself.
			wi.ChargeGlobal(20*llen, 0)
			wi.Flops(pp.FlopsPerInteraction * llen)
			wi.Aux(3 * llen)
			var ax, ay, az float32
			for e := 0; e < llen; e++ {
				idx := lists[base+e]
				a := pp.AccumulateInto(px, py, pz,
					src[4*idx], src[4*idx+1], src[4*idx+2], src[4*idx+3], eps2)
				ax += a.X
				ay += a.Y
				az += a.Z
			}

			wi.ChargeGlobal(16, 0)
			acc[4*slot+0] = ax * g
			acc[4*slot+1] = ay * g
			acc[4*slot+2] = az * g
			acc[4*slot+3] = 0
		}
	}
}

// graph builds the plan's stage graph: the treecode host front (tree, list),
// the four uploads, the one-walk-per-group kernel, and the download.
func (p *WParallel) graph(d *bhHostData) *pipeline.Graph {
	g := pipeline.NewGraph(p.Name())
	for _, st := range bhFrontStages(d) {
		g.Add(st)
	}
	return g.
		Add(stageUploadF32("upload:src", p.bufSrc, d.srcF4, "list")).
		Add(stageUploadF32("upload:posm", p.bufPos, d.posmSorted, "list")).
		Add(stageUploadI32("upload:lists", p.bufLists, d.lists, "list")).
		Add(stageUploadI32("upload:desc", p.bufDesc, d.desc, "list")).
		Add(stageKernel("force", "wparallel.force", p.kernel(), gpusim.LaunchParams{
			Global: d.numWalks * p.LocalSize,
			Local:  p.LocalSize,
		}, "upload:src", "upload:posm", "upload:lists", "upload:desc")).
		Add(stageDownloadF32("download:acc", p.bufAcc, p.hostAcc, "force"))
}

// Accel implements Plan.
func (p *WParallel) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: w-parallel: empty system")
	}
	sp := p.obs.Start("accel", "plan").Track(p.Name()).Arg("n", n)
	defer sp.End()
	if err := p.data.build(s, p.Opt, p.GroupCap, p.LocalSize, p.Host, p.Policy, p.HostWorkers); err != nil {
		return nil, err
	}
	d := &p.data
	observeBHData(p.obs, d)

	p.ensure("wparallel.src", &p.bufSrc, len(d.srcF4), true)
	p.ensure("wparallel.posm", &p.bufPos, len(d.posmSorted), true)
	p.ensure("wparallel.lists", &p.bufLists, len(d.lists), false)
	p.ensure("wparallel.desc", &p.bufDesc, len(d.desc), false)
	p.ensure("wparallel.acc", &p.bufAcc, 4*n, true)
	if cap(p.hostAcc) < 4*n {
		p.hostAcc = make([]float32, 4*n)
	}
	p.hostAcc = p.hostAcc[:4*n]

	rp, err := p.run(p.graph(d), p.Name(), n, d.interactions)
	if err != nil {
		return nil, err
	}
	rp.HostBuildSeconds = d.wallSeconds
	if rp.Schedule != nil {
		rp.Schedule.HostWallSeconds = d.wallSeconds
	}
	d.scatterAcc(s, d.walkIDs(), p.hostAcc)
	return rp, nil
}
