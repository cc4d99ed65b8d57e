package core

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bh"
	"repro/internal/cl"
	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/pp"
)

// planOptions collects everything a plan constructor can be configured
// with. The per-plan constructors each took a different subset positionally;
// NewPlanByName replaces them with one option list whose unset fields mean
// "the plan's documented default".
type planOptions struct {
	clCtx  *cl.Context
	device gpusim.DeviceConfig
	params pp.Params
	opt    bh.Options

	obs         *obs.Obs
	kernelCheck string
	lintOut     io.Writer

	groupCap    int
	localSize   int
	queueTarget int

	hostWorkers int
	hostPolicy  HostPolicy
}

// PlanOption configures NewPlanByName.
type PlanOption func(*planOptions)

// WithDevice selects the modelled device the plan creates its context on
// (default gpusim.HD5850, the paper's card). Ignored when WithCLContext
// supplies a context.
func WithDevice(cfg gpusim.DeviceConfig) PlanOption {
	return func(o *planOptions) { o.device = cfg }
}

// WithCLContext reuses an existing context instead of creating one — how the
// serve pool pins every plan of one engine slot to the same modelled device.
func WithCLContext(ctx *cl.Context) PlanOption {
	return func(o *planOptions) { o.clCtx = ctx }
}

// WithPPParams sets the gravity parameters of the PP plans (default
// pp.DefaultParams).
func WithPPParams(p pp.Params) PlanOption {
	return func(o *planOptions) { o.params = p }
}

// WithBHOptions sets the treecode options of the BH plans (default
// bh.DefaultOptions).
func WithBHOptions(opt bh.Options) PlanOption {
	return func(o *planOptions) { o.opt = opt }
}

// WithObs wires a telemetry bundle into the plan at construction, replacing
// the ad-hoc post-construction SetObs dance.
func WithObs(o *obs.Obs) PlanOption {
	return func(po *planOptions) { po.obs = o }
}

// WithKernelCheck lints the shipped kernel sources before the plan is built
// ("off", "warn" — findings written to w, nil meaning discard — or
// "strict", under which any active finding fails construction).
func WithKernelCheck(mode string, w io.Writer) PlanOption {
	return func(o *planOptions) { o.kernelCheck = mode; o.lintOut = w }
}

// WithTuning overrides the plan's decomposition parameters; zero values keep
// the plan's defaults. groupCap is the walk size of the BH plans,
// localSize the work-group size of every plan, queueTarget the jw walk-queue
// count (0 fills the device).
func WithTuning(groupCap, localSize, queueTarget int) PlanOption {
	return func(o *planOptions) {
		o.groupCap = groupCap
		o.localSize = localSize
		o.queueTarget = queueTarget
	}
}

// WithHostWorkers caps the parallelism of the host-side build of the BH
// plans (0 = GOMAXPROCS, 1 = serial). PP plans have no tree build and ignore
// it.
func WithHostWorkers(n int) PlanOption {
	return func(o *planOptions) { o.hostWorkers = n }
}

// WithHostPolicy sets the refit-vs-rebuild policy of the BH plans' host
// pipeline; the zero value rebuilds the octree every step.
func WithHostPolicy(p HostPolicy) PlanOption {
	return func(o *planOptions) { o.hostPolicy = p }
}

// PlanNames lists every name NewPlanByName accepts, in the paper's
// presentation order. Multi-device variants follow the pattern
// "jw-parallel-xK" for any K >= 2; the list shows the two tracked ones.
func PlanNames() []string {
	return []string{
		"i-parallel", "j-parallel", "w-parallel", "jw-parallel",
		"jw-parallel-x2", "jw-parallel-x4",
		"i-parallel-src", "j-parallel-src",
	}
}

// NewPlanByName constructs the named execution plan. It is the only
// exported way to build a plan; the CLIs and the job service all come
// through here.
//
// Names: the four paper plans ("i-parallel", "j-parallel", "w-parallel",
// "jw-parallel"), jw-parallel scaled out to K devices ("jw-parallel-xK",
// K >= 2), and the OpenCL-C-source PP variants ("i-parallel-src",
// "j-parallel-src") that run through the clc compiler.
func NewPlanByName(name string, opts ...PlanOption) (Plan, error) {
	o := planOptions{
		device: gpusim.HD5850(),
		params: pp.DefaultParams(),
		opt:    bh.DefaultOptions(),
	}
	for _, fn := range opts {
		fn(&o)
	}
	devices := 1
	if k, ok := strings.CutPrefix(name, "jw-parallel-x"); ok {
		var err error
		if devices, err = strconv.Atoi(k); err != nil || devices < 2 {
			return nil, fmt.Errorf("core: bad multi-device plan %q (want jw-parallel-xK, K >= 2)", name)
		}
		name = "jw-parallel"
	}
	if o.kernelCheck != "" {
		if err := PreflightKernelCheck(o.kernelCheck, o.obs, o.lintOut); err != nil {
			return nil, err
		}
	}
	ctx := o.clCtx
	if ctx == nil {
		var err error
		if ctx, err = cl.NewContext(o.device); err != nil {
			return nil, err
		}
	}
	setLocal := func(size *int) {
		if o.localSize > 0 {
			*size = o.localSize
		}
	}

	var plan Plan
	switch name {
	case "i-parallel":
		p := newIParallel(ctx, o.params)
		setLocal(&p.GroupSize)
		plan = p
	case "j-parallel":
		p := newJParallel(ctx, o.params)
		setLocal(&p.GroupSize)
		plan = p
	case "w-parallel":
		p := newWParallel(ctx, o.opt)
		if o.groupCap > 0 {
			p.GroupCap = o.groupCap
		}
		setLocal(&p.LocalSize)
		p.HostWorkers = o.hostWorkers
		p.Policy = o.hostPolicy
		plan = p
	case "jw-parallel":
		p := newJWParallel(ctx, o.opt)
		p.Devices = devices
		if o.groupCap > 0 {
			p.GroupCap = o.groupCap
		}
		setLocal(&p.LocalSize)
		if o.queueTarget > 0 {
			p.QueueTarget = o.queueTarget
		}
		p.HostWorkers = o.hostWorkers
		p.Policy = o.hostPolicy
		plan = p
	case "i-parallel-src", "j-parallel-src":
		variant := "iparallel"
		if name == "j-parallel-src" {
			variant = "jparallel"
		}
		p, err := newCLPlanPP(ctx, o.params, variant)
		if err != nil {
			return nil, err
		}
		setLocal(&p.GroupSize)
		plan = p
	default:
		return nil, fmt.Errorf("core: unknown plan %q (known: %s)", name, strings.Join(PlanNames(), ", "))
	}
	if o.obs != nil {
		if ob, ok := plan.(obs.Observable); ok {
			ob.SetObs(o.obs)
		}
	}
	return plan, nil
}

// NewEngineByName builds the named plan and wraps it in an Engine, carrying
// the telemetry bundle through to both.
func NewEngineByName(name string, opts ...PlanOption) (*Engine, error) {
	var o planOptions
	for _, fn := range opts {
		fn(&o)
	}
	plan, err := NewPlanByName(name, opts...)
	if err != nil {
		return nil, err
	}
	eng := NewEngine(plan)
	if o.obs != nil {
		eng.SetObs(o.obs)
	}
	return eng, nil
}
