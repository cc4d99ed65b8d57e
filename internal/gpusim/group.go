package gpusim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// GroupFunc is the body of a kernel in group form, invoked once per
// work-group on the worker goroutine that runs the group. It loops over the
// group's lanes itself, in ascending local id between two Group.Barrier
// calls, and charges each lane's work through Group.Lane. State a lane keeps
// across a barrier lives in Group.Private. This is the fast form: a barrier
// is a counter, not a coroutine switch per lane.
type GroupFunc func(g *Group)

// Group is the execution context of one work-group in a group-form launch.
// A worker owns one and reuses it, with its lanes, LDS and private memory,
// for every group it runs.
type Group struct {
	id         int
	local      int
	globalSize int
	numGroups  int
	lds        []float32
	items      []Item
	private    []float32
	barriers   int64
	// cur is the lane last selected through Lane, named if the kernel
	// panics; -1 before the first.
	cur     int
	yielded time.Time
}

// ID returns the work-group id.
func (g *Group) ID() int { return g.id }

// LocalSize returns the work-group size.
func (g *Group) LocalSize() int { return g.local }

// NumGroups returns the number of work-groups in the launch.
func (g *Group) NumGroups() int { return g.numGroups }

// GlobalSize returns the NDRange size.
func (g *Group) GlobalSize() int { return g.globalSize }

// Lane returns the work-item context of local id l, through which every
// access and operation of that lane is charged.
func (g *Group) Lane(l int) *Item {
	g.cur = l
	return &g.items[l]
}

// LDS returns the group's local memory without charging traffic; charge it
// on the accessing lane with Item.ChargeLDS.
func (g *Group) LDS() []float32 { return g.lds }

// Private returns perLane zeroed float32 slots of private memory for every
// lane: lane l owns [l*perLane, (l+1)*perLane). It holds what a work-item
// keeps in registers across a barrier. The worker owns the memory and reuses
// it for its later groups; the cost model does not see it.
func (g *Group) Private(perLane int) []float32 {
	n := perLane * g.local
	if cap(g.private) < n {
		g.private = make([]float32, n)
	}
	p := g.private[:n]
	clear(p)
	return p
}

// Barrier synchronises the work-group, like OpenCL
// barrier(CLK_LOCAL_MEM_FENCE): every lane's work before the call is done
// before any lane's work after it, which a group function's lane loops
// guarantee by construction. It counts one crossed barrier.
func (g *Group) Barrier() {
	g.barriers++
	if time.Since(g.yielded) > yieldEvery { // repocheck:allow nodeterminism -- scheduling only: decides when a worker yields the P; never reaches counters or the cost model
		g.yield()
	}
}

// yieldEvery bounds how long a worker runs a group's barrier phases before
// it yields the P. Yielding only between groups is too coarse: one group of
// a small launch can run for about a millisecond, and a concurrent job's
// handlers waited that long for a P. Yielding at every barrier is too fine:
// launches with many short phases lost about a quarter of their throughput
// to scheduler switches.
const yieldEvery = 100 * time.Microsecond

// yield gives the P to other runnable goroutines (a concurrent job's
// launch, an HTTP handler). A worker never parks while it runs groups, so
// without it they would wait for the scheduler's preemption.
func (g *Group) yield() {
	runtime.Gosched()
	g.yielded = time.Now() // repocheck:allow nodeterminism -- scheduling only: decides when a worker yields the P; never reaches counters or the cost model
}

// LaunchGroups executes a group-form kernel over the NDRange and returns its
// counted work and modelled timing, exactly as Launch does for a per-item
// kernel: same validation, workers, error reporting and cost fold. A panic
// inside the kernel is converted into an error naming the kernel, the group
// and the lane last selected through Group.Lane.
func (d *Device) LaunchGroups(name string, fn GroupFunc, p LaunchParams) (*Result, error) {
	return d.launch(name, p, func(*worker) (GroupFunc, func()) { return fn, nil })
}

// worker runs work-groups one after another on one goroutine, reusing its
// Group for each.
type worker struct {
	d      *Device
	name   string
	g      Group
	report func(error)
}

// launch is the executor behind both kernel forms. Work-groups are spread
// over min(GOMAXPROCS, groups) workers, the caller being the first. For
// each worker, body returns the group function to run on it and an
// optional release, called once the worker has run its last group.
func (d *Device) launch(name string, p LaunchParams, body func(*worker) (GroupFunc, func())) (*Result, error) {
	if p.Local <= 0 {
		return nil, fmt.Errorf("gpusim: kernel %s: non-positive local size %d", name, p.Local)
	}
	if p.Global <= 0 || p.Global%p.Local != 0 {
		return nil, fmt.Errorf("gpusim: kernel %s: global size %d not a positive multiple of local %d",
			name, p.Global, p.Local)
	}
	if p.LDSFloats*4 > d.Config.LDSPerCU {
		return nil, fmt.Errorf("gpusim: kernel %s: LDS request %d bytes exceeds %d per CU",
			name, p.LDSFloats*4, d.Config.LDSPerCU)
	}
	numGroups := p.Global / p.Local
	res := &Result{Kernel: name, Params: p, Groups: make([]GroupCost, numGroups)}

	var firstErr error
	var errMu sync.Mutex
	reportErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	var nextGroup atomic.Int64
	work := func() {
		w := newWorker(d, name, p, numGroups, reportErr)
		run, release := body(w)
		if release != nil {
			defer release()
		}
		for {
			gid := int(nextGroup.Add(1) - 1)
			if gid >= numGroups {
				return
			}
			w.runGroup(gid, run, &res.Groups[gid])
			w.g.yield()
		}
	}
	workers := min(runtime.GOMAXPROCS(0), numGroups)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	res.Timing = d.cost(res)
	return res, nil
}

func newWorker(d *Device, name string, p LaunchParams, numGroups int, report func(error)) *worker {
	w := &worker{
		d:      d,
		name:   name,
		g:      Group{local: p.Local, globalSize: p.Global, numGroups: numGroups, items: make([]Item, p.Local)},
		report: report,
	}
	if p.LDSFloats > 0 {
		w.g.lds = make([]float32, p.LDSFloats)
	}
	for i := range w.g.items {
		w.g.items[i] = Item{g: &w.g, local: i}
	}
	return w
}

// runGroup resets the worker's Group for work-group gid, runs it, and folds
// the lanes' counters into cost.
func (w *worker) runGroup(gid int, run GroupFunc, cost *GroupCost) {
	g := &w.g
	g.id = gid
	g.barriers = 0
	g.cur = -1
	clear(g.lds)
	for i := range g.items {
		g.items[i].global = gid*g.local + i
		g.items[i].ln = laneCounters{}
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				w.fail(g.cur, r)
			}
		}()
		run(g)
	}()
	w.fold(cost)
}

// fail reports a panic of the running group's kernel, naming its lane when
// one is known (lane < 0 when the kernel panicked before selecting one).
func (w *worker) fail(lane int, v any) {
	g := &w.g
	if lane < 0 {
		w.report(fmt.Errorf("gpusim: kernel %s: group=%d panicked: %v", w.name, g.id, v))
		return
	}
	w.report(fmt.Errorf("gpusim: kernel %s: work-item global=%d local=%d group=%d panicked: %v",
		w.name, g.id*g.local+lane, lane, g.id, v))
}

// fold sums the running group's lane counters into its GroupCost.
func (w *worker) fold(cost *GroupCost) {
	g := &w.g
	cost.Barriers = g.barriers
	wf := w.d.Config.WavefrontSize
	for base := 0; base < g.local; base += wf {
		var maxIssue int64
		for l := base; l < min(base+wf, g.local); l++ {
			ln := &g.items[l].ln
			if issue := ln.flops + ln.auxFlops; issue > maxIssue {
				maxIssue = issue
			}
		}
		cost.WFMaxFlops += maxIssue
	}
	for l := range g.items {
		ln := &g.items[l].ln
		cost.Flops += ln.flops
		cost.AuxFlops += ln.auxFlops
		cost.BytesCoalesced += ln.bytesCoalesced
		cost.BytesScattered += ln.bytesScattered
		cost.LDSBytes += ln.ldsBytes
	}
}
