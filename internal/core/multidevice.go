package core

import (
	"fmt"
	"sort"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// MultiJW extends the paper's jw-parallel plan to several GPUs — the
// natural scale-out the multiple-walk literature (Hamada et al., SC'09)
// runs in production. The host half of the pipeline is unchanged and
// executes once: one octree, one set of group walks. The *walks* are then
// partitioned across the devices with the same longest-processing-time
// heuristic used for intra-device queues; every device receives the full
// source data (tree cells + bodies, needed because any walk may interact
// with any cell) but only its shard of walk queues, computes accelerations
// for its shard's bodies, and the host merges the disjoint results.
//
// Timing: devices run concurrently, so the plan's kernel (and transfer)
// time is the maximum over devices, while the host time is paid once.
// Near-linear scaling holds while every device still gets enough walks to
// fill its compute units; the scaling test and bench quantify the tail-off.
type MultiJW struct {
	Opt bh.Options
	// Devices is the number of simulated GPUs (contexts are created from
	// Config on first use).
	Devices int
	// Config is the per-device configuration (HD5850 by default).
	Config gpusim.DeviceConfig
	// GroupCap, LocalSize, QueueTarget as in JWParallel, applied per device.
	GroupCap    int
	LocalSize   int
	QueueTarget int
	// Host models the CPU half of the pipeline.
	Host gpusim.HostModel
	// HostWorkers caps the parallelism of the host-side build (0 =
	// GOMAXPROCS, 1 = serial).
	HostWorkers int
	// Policy is the refit-vs-rebuild hook; the zero value rebuilds every
	// step.
	Policy HostPolicy

	// data is the pooled host-side product of the build; steps 2..K reuse
	// its arenas.
	data bhHostData

	ctxs []*cl.Context
	devs []*deviceState
	obs  *obs.Obs
}

// deviceState holds one device's queue and buffers.
type deviceState struct {
	queue *cl.Queue
	bufs  jwBuffers
	host  []float32
}

// NewMultiJW creates the plan with the given device count.
//
// Deprecated: new code should construct plans through NewPlanByName
// ("jw-parallel-xK"); see NewIParallel.
func NewMultiJW(opt bh.Options, devices int, cfg gpusim.DeviceConfig) *MultiJW {
	return &MultiJW{
		Opt:       opt,
		Devices:   devices,
		Config:    cfg,
		GroupCap:  24,
		LocalSize: 64,
		Host:      gpusim.PaperHost(),
	}
}

// Name implements Plan.
func (p *MultiJW) Name() string { return fmt.Sprintf("jw-parallel x%d", p.Devices) }

// Kind implements Plan.
func (p *MultiJW) Kind() Kind { return KindBH }

// SetHostWorkers caps the host-side build parallelism.
func (p *MultiJW) SetHostWorkers(n int) { p.HostWorkers = n }

// SetObs implements obs.Observable. Every device queue reports into the
// same bundle; per-device spans are distinguished by command names.
func (p *MultiJW) SetObs(o *obs.Obs) {
	p.obs = o
	p.Opt.Trace = o.Tracer()
	for _, ds := range p.devs {
		ds.queue.SetObs(o)
	}
}

func (p *MultiJW) init() error {
	if p.Devices <= 0 {
		return fmt.Errorf("core: multi-jw: %d devices", p.Devices)
	}
	if p.ctxs != nil {
		return nil
	}
	for i := 0; i < p.Devices; i++ {
		ctx, err := cl.NewContext(p.Config)
		if err != nil {
			return err
		}
		p.ctxs = append(p.ctxs, ctx)
		ds := &deviceState{queue: ctx.NewQueue()}
		ds.queue.SetObs(p.obs)
		p.devs = append(p.devs, ds)
	}
	return nil
}

func (p *MultiJW) queuesPerDevice(walks int) int {
	target := p.QueueTarget
	if target <= 0 {
		target = p.Config.ComputeUnits * p.Config.MaxGroupsPerCU
	}
	if target > walks {
		target = walks
	}
	if target < 1 {
		target = 1
	}
	return target
}

// shardWalks partitions walk ids into p.Devices shards, LPT on list cost.
func (p *MultiJW) shardWalks(d *bhHostData) [][]int32 {
	type wcost struct {
		id   int32
		cost int64
	}
	ws := make([]wcost, d.numWalks)
	for i := 0; i < d.numWalks; i++ {
		cnt := int64(d.desc[i*bhDescStride+1])
		llen := int64(d.desc[i*bhDescStride+3])
		ws[i] = wcost{id: int32(i), cost: llen * maxI64(cnt, 1)}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].cost > ws[b].cost })
	shards := make([][]int32, p.Devices)
	load := make([]int64, p.Devices)
	for _, w := range ws {
		k := 0
		for j := 1; j < p.Devices; j++ {
			if load[j] < load[k] {
				k = j
			}
		}
		shards[k] = append(shards[k], w.id)
		load[k] += w.cost
	}
	return shards
}

// ensure sizes (or resizes) one device's buffers.
func (ds *deviceState) ensure(dev *gpusim.Device, d *bhHostData, qw, qd []int32, n int) {
	grow := func(buf **gpusim.Buffer, name string, sz int, isFloat bool) {
		if *buf != nil && (*buf).Len() >= sz && (*buf).IsFloat() == isFloat {
			return
		}
		if isFloat {
			*buf = dev.NewBufferF32(name, sz)
		} else {
			*buf = dev.NewBufferI32(name, sz)
		}
	}
	grow(&ds.bufs.src, "multijw.src", len(d.srcF4), true)
	grow(&ds.bufs.pos, "multijw.posm", len(d.posmSorted), true)
	grow(&ds.bufs.lists, "multijw.lists", len(d.lists), false)
	grow(&ds.bufs.desc, "multijw.desc", len(d.desc), false)
	grow(&ds.bufs.queueWalks, "multijw.qwalks", len(qw), false)
	grow(&ds.bufs.queueDesc, "multijw.qdesc", len(qd), false)
	grow(&ds.bufs.acc, "multijw.acc", 4*n, true)
	if cap(ds.host) < 4*n {
		ds.host = make([]float32, 4*n)
	}
	ds.host = ds.host[:4*n]
}

// queuesForShard balances one shard's walks into numQueues queues.
func queuesForShard(d *bhHostData, shard []int32, numQueues int) (qw, qd []int32) {
	type wcost struct {
		id   int32
		cost int64
	}
	ws := make([]wcost, len(shard))
	for i, id := range shard {
		cnt := int64(d.desc[id*bhDescStride+1])
		llen := int64(d.desc[id*bhDescStride+3])
		ws[i] = wcost{id: id, cost: llen * maxI64(cnt, 1)}
	}
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].cost > ws[b].cost })
	queues := make([][]int32, numQueues)
	load := make([]int64, numQueues)
	for _, w := range ws {
		k := 0
		for j := 1; j < numQueues; j++ {
			if load[j] < load[k] {
				k = j
			}
		}
		queues[k] = append(queues[k], w.id)
		load[k] += w.cost
	}
	qd = make([]int32, 0, 2*numQueues)
	for _, q := range queues {
		qd = append(qd, int32(len(qw)), int32(len(q)))
		qw = append(qw, q...)
	}
	return qw, qd
}

// Accel implements Plan.
func (p *MultiJW) Accel(s *body.System) (*RunProfile, error) {
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("core: multi-jw: empty system")
	}
	if err := p.init(); err != nil {
		return nil, err
	}
	sp := p.obs.Start("accel", "plan").Track(p.Name()).Arg("n", n).Arg("devices", p.Devices)
	defer sp.End()
	if err := p.data.build(s, p.Opt, p.GroupCap, p.LocalSize, p.Host, p.Policy, p.HostWorkers); err != nil {
		return nil, err
	}
	d := &p.data
	observeBHData(p.obs, d)
	shards := p.shardWalks(d)

	prof := cl.Profile{HostSeconds: d.treeSeconds + d.listSeconds}
	var launches []*gpusim.Result
	var maxKernel, maxTransfer float64

	for k, ds := range p.devs {
		shard := shards[k]
		if len(shard) == 0 {
			continue
		}
		numQueues := p.queuesPerDevice(len(shard))
		qw, qd := queuesForShard(d, shard, numQueues)
		ds.ensure(p.ctxs[k].Device(), d, qw, qd, n)

		q := ds.queue
		q.Reset()
		if _, err := q.EnqueueWriteF32(ds.bufs.src, d.srcF4); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteF32(ds.bufs.pos, d.posmSorted); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteI32(ds.bufs.lists, d.lists); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteI32(ds.bufs.desc, d.desc); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteI32(ds.bufs.queueWalks, qw); err != nil {
			return nil, err
		}
		if _, err := q.EnqueueWriteI32(ds.bufs.queueDesc, qd); err != nil {
			return nil, err
		}

		kernel := jwKernel(ds.bufs, p.Opt.G, p.Opt.Eps*p.Opt.Eps, true)
		ev, err := q.EnqueueGroups(fmt.Sprintf("multijw.force.dev%d", k), kernel, gpusim.LaunchParams{
			Global:    numQueues * p.LocalSize,
			Local:     p.LocalSize,
			LDSFloats: 4 * p.LocalSize,
		})
		if err != nil {
			return nil, err
		}
		if _, err := q.EnqueueReadF32(ds.bufs.acc, ds.host); err != nil {
			return nil, err
		}
		launches = append(launches, ev.Result)

		// Merge this shard's slots into the host result via the walk
		// descriptors (slots are disjoint across walks).
		for _, wid := range shard {
			first := int(d.desc[wid*bhDescStride+0])
			count := int(d.desc[wid*bhDescStride+1])
			for slot := first; slot < first+count; slot++ {
				bi := d.tree.Index[slot]
				s.Acc[bi].X = ds.host[4*slot+0]
				s.Acc[bi].Y = ds.host[4*slot+1]
				s.Acc[bi].Z = ds.host[4*slot+2]
			}
		}

		dp := q.Profile()
		if dp.KernelSeconds > maxKernel {
			maxKernel = dp.KernelSeconds
		}
		if dp.TransferSeconds > maxTransfer {
			maxTransfer = dp.TransferSeconds
		}
		prof.TransferBytes += dp.TransferBytes
		prof.KernelFlops += dp.KernelFlops
	}
	// Devices run concurrently: the slowest sets the pace.
	prof.KernelSeconds = maxKernel
	prof.TransferSeconds = maxTransfer

	rp := &RunProfile{
		Plan:             p.Name(),
		N:                n,
		Interactions:     d.interactions,
		Flops:            interactionFlops(d.interactions),
		Profile:          prof,
		Launches:         launches,
		HostBuildSeconds: d.wallSeconds,
	}
	observeRun(p.obs, rp)
	return rp, nil
}
