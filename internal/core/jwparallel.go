package core

import (
	"fmt"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// JWParallel is the paper's plan: the jw-parallel mapping derived from the
// parallel time-space processing model. It keeps w-parallel's walk
// decomposition (CPU builds the tree and the shared interaction lists; the
// GPU evaluates forces) and fixes its two structural costs by applying the
// j-parallel idea *inside* each walk:
//
//   - The walk's interaction list is consumed in tiles: all lanes of the
//     work-group cooperatively stage one tile (coalesced index load +
//     gathered source float4 -> local memory), then every lane evaluates the
//     whole tile for its own body out of local memory. Global traffic per
//     list entry drops from bodies x 20 bytes to 20 bytes.
//
//   - Work-groups are decoupled from walks: each group drains a host-built
//     *queue* of walks, balanced by a longest-processing-time heuristic, so
//     group count (and with it occupancy) is chosen to fill the device and
//     short walks no longer pay a whole group launch each.
//
// Per the paper's Section 4.3, with a single walk covering all bodies the
// plan degenerates to the PP j-parallel scheme, which is why the paper names
// it jw-parallel.
//
// Build it with NewPlanByName("jw-parallel") or, for K devices,
// NewPlanByName("jw-parallel-xK").
type JWParallel struct {
	Opt bh.Options
	// Devices is the number of simulated GPUs K (default 1). With K >= 2
	// the host half still runs once (one tree, one set of walks); the walks
	// are sharded across the devices by the same longest-processing-time
	// heuristic that balances a device's queues, every device receives the
	// full source data (any walk may reach any cell) and drains its own
	// shard, and the host merges the disjoint results — the GraCCA-style
	// scale-out of this mapping. Device 0 is the plan's own context; devices
	// 1..K-1 get contexts of the same DeviceConfig on first use.
	Devices int
	// GroupCap is the maximum bodies per walk (default 24; the jw group-size
	// ablation sweeps it).
	GroupCap int
	// LocalSize is the work-group size (default 64).
	LocalSize int
	// QueueTarget is the number of work-groups (walk queues) per device; 0
	// selects ComputeUnits x MaxGroupsPerCU, enough to fill the device.
	QueueTarget int
	// Host models the CPU half of the pipeline.
	Host gpusim.HostModel
	// HostWorkers caps the parallelism of the host-side build (0 =
	// GOMAXPROCS, 1 = serial).
	HostWorkers int
	// Policy is the refit-vs-rebuild hook; the zero value rebuilds every
	// step.
	Policy HostPolicy
	// DisableLDSStaging reverts the list handling to w-parallel's per-lane
	// streaming while keeping the queueing — the ablation showing where the
	// speedup comes from.
	DisableLDSStaging bool

	jwDevice             // device 0
	peers    []*jwDevice // devices 1..K-1

	// data is the pooled host-side product of the build; steps 2..K reuse
	// its arenas.
	data bhHostData
}

// jwDevice is one simulated GPU of the plan: its context and queue, the
// force kernel's buffers, and the host copy of its results.
type jwDevice struct {
	planBase
	bufs    jwBuffers
	hostAcc []float32
}

// newJWParallel creates the plan on the given context with the paper's
// defaults.
func newJWParallel(ctx *cl.Context, opt bh.Options) *JWParallel {
	return &JWParallel{
		Opt:       opt,
		Devices:   1,
		GroupCap:  24,
		LocalSize: 64,
		Host:      gpusim.PaperHost(),
		jwDevice:  jwDevice{planBase: newPlanBase(ctx)},
	}
}

// Name implements Plan.
func (p *JWParallel) Name() string {
	if p.Devices > 1 {
		return fmt.Sprintf("jw-parallel x%d", p.Devices)
	}
	return "jw-parallel"
}

// SetObs implements obs.Observable: spans cover the whole pipeline (tree
// build, walk construction, uploads, kernel, download) and the registry
// receives the per-step breakdown. Every device queue reports into the same
// bundle.
func (p *JWParallel) SetObs(o *obs.Obs) {
	p.setObs(o)
	p.Opt.Trace = o.Tracer()
	for _, dev := range p.peers {
		dev.setObs(o)
	}
}

// Kind implements Plan.
func (p *JWParallel) Kind() Kind { return KindBH }

// SetHostWorkers caps the host-side build parallelism.
func (p *JWParallel) SetHostWorkers(n int) { p.HostWorkers = n }

func (p *JWParallel) numQueues(numWalks int) int {
	target := p.QueueTarget
	if target <= 0 {
		cfg := p.ctx.Device().Config
		target = cfg.ComputeUnits * cfg.MaxGroupsPerCU
	}
	if target > numWalks {
		target = numWalks
	}
	if target < 1 {
		target = 1
	}
	return target
}

// device returns device k, creating devices 1..k from device 0's
// configuration on first use.
func (p *JWParallel) device(k int) (*jwDevice, error) {
	if k == 0 {
		return &p.jwDevice, nil
	}
	for len(p.peers) < k {
		ctx, err := cl.NewContext(p.ctx.Device().Config)
		if err != nil {
			return nil, err
		}
		dev := &jwDevice{planBase: newPlanBase(ctx)}
		dev.setObs(p.obs)
		p.peers = append(p.peers, dev)
	}
	return p.peers[k-1], nil
}

// ensureBuffers sizes the device's buffers (grow-only) for host data d, the
// given queue tables and n bodies.
func (dev *jwDevice) ensureBuffers(d *bhHostData, queueWalks, queueDesc []int32, n int) {
	dev.ensure("jwparallel.src", &dev.bufs.src, len(d.srcF4), true)
	dev.ensure("jwparallel.posm", &dev.bufs.pos, len(d.posmSorted), true)
	dev.ensure("jwparallel.lists", &dev.bufs.lists, len(d.lists), false)
	dev.ensure("jwparallel.desc", &dev.bufs.desc, len(d.desc), false)
	dev.ensure("jwparallel.qwalks", &dev.bufs.queueWalks, len(queueWalks), false)
	dev.ensure("jwparallel.qdesc", &dev.bufs.queueDesc, len(queueDesc), false)
	dev.ensure("jwparallel.acc", &dev.bufs.acc, 4*n, true)
	if cap(dev.hostAcc) < 4*n {
		dev.hostAcc = make([]float32, 4*n)
	}
	dev.hostAcc = dev.hostAcc[:4*n]
}

// graph builds one device's stage graph: the treecode host front (tree,
// list), the six uploads (walk data plus the device's balanced queue
// tables), the queue-draining kernel, and the download.
func (p *JWParallel) graph(dev *jwDevice, kernelName string, d *bhHostData, queueWalks, queueDesc []int32, numQueues int) *pipeline.Graph {
	staged := !p.DisableLDSStaging
	b := dev.bufs
	kernel := jwKernel(b, p.Opt.G, p.Opt.Eps*p.Opt.Eps, staged)
	lds := 0
	if staged {
		lds = 4 * p.LocalSize
	}

	g := pipeline.NewGraph(p.Name())
	for _, st := range bhFrontStages(d) {
		g.Add(st)
	}
	return g.
		Add(stageUploadF32("upload:src", b.src, d.srcF4, "list")).
		Add(stageUploadF32("upload:posm", b.pos, d.posmSorted, "list")).
		Add(stageUploadI32("upload:lists", b.lists, d.lists, "list")).
		Add(stageUploadI32("upload:desc", b.desc, d.desc, "list")).
		Add(stageUploadI32("upload:qwalks", b.queueWalks, queueWalks, "list")).
		Add(stageUploadI32("upload:qdesc", b.queueDesc, queueDesc, "list")).
		Add(stageKernel("force", kernelName, kernel, gpusim.LaunchParams{
			Global:    numQueues * p.LocalSize,
			Local:     p.LocalSize,
			LDSFloats: lds,
		}, "upload:src", "upload:posm", "upload:lists", "upload:desc", "upload:qwalks", "upload:qdesc")).
		Add(stageDownloadF32("download:acc", b.acc, dev.hostAcc, "force"))
}

// Accel implements Plan. Each device runs the stage graph on its own queue
// over its shard of the walks. Devices run concurrently, so with K >= 2 the
// profile's kernel and transfer seconds are the maximum over devices, bytes
// and flops their sum, and the host time is paid once; the evaluation then
// spans several queues and carries no single Schedule.
func (p *JWParallel) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: jw-parallel: empty system")
	}
	if p.Devices < 1 {
		return nil, fmt.Errorf("core: jw-parallel: %d devices", p.Devices)
	}
	sp := p.obs.Start("accel", "plan").Track(p.Name()).Arg("n", n)
	defer sp.End()
	if err := p.data.build(s, p.Opt, p.GroupCap, p.LocalSize, p.Host, p.Policy, p.HostWorkers); err != nil {
		return nil, err
	}
	d := &p.data
	observeBHData(p.obs, d)

	rp := &RunProfile{
		Plan:             p.Name(),
		N:                n,
		Interactions:     d.interactions,
		Flops:            interactionFlops(d.interactions),
		HostBuildSeconds: d.wallSeconds,
	}
	for k, shard := range d.lpt(d.walkIDs(), p.Devices) {
		if len(shard) == 0 {
			continue
		}
		dev, err := p.device(k)
		if err != nil {
			return nil, err
		}
		numQueues := p.numQueues(len(shard))
		queueWalks, queueDesc := queueTables(d.lpt(shard, numQueues))
		dev.ensureBuffers(d, queueWalks, queueDesc, n)
		kernelName := "jwparallel.force"
		if k > 0 {
			kernelName = fmt.Sprintf("jwparallel.force.dev%d", k)
		}

		dev.queue.Reset()
		sched, err := p.graph(dev, kernelName, d, queueWalks, queueDesc, numQueues).Execute(dev.queue, p.obs)
		if err != nil {
			return nil, err
		}
		rp.Launches = append(rp.Launches, sched.Launches()...)
		dp := dev.queue.Profile()
		if k == 0 {
			sched.HostWallSeconds = d.wallSeconds
			rp.Profile, rp.Schedule = dp, sched
		} else {
			rp.Schedule = nil
			rp.Profile.KernelSeconds = max(rp.Profile.KernelSeconds, dp.KernelSeconds)
			rp.Profile.TransferSeconds = max(rp.Profile.TransferSeconds, dp.TransferSeconds)
			rp.Profile.TransferBytes += dp.TransferBytes
			rp.Profile.KernelFlops += dp.KernelFlops
		}
		d.scatterAcc(s, shard, dev.hostAcc)
	}
	observeRun(p.obs, rp)
	return rp, nil
}
