//go:build go1.23

package gpusim

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// errLaneStopped unwinds a kernel whose lane coroutine is stopped while it
// waits at a barrier, so the kernel never runs past a barrier unsynchronised.
var errLaneStopped = errors.New("gpusim: lane stopped at a barrier")

// Launch executes the kernel over the NDRange and returns its counted work
// and modelled timing. Execution is functionally exact: all work-items run,
// barriers really synchronise, and buffer contents after Launch are the
// kernel's true output. A panic inside the kernel (including buffer
// overruns) is converted into an error identifying the kernel.
//
// Work-groups are spread over min(GOMAXPROCS, groups) workers; each worker
// runs its groups one at a time in lockstep (see runGroup).
func (d *Device) Launch(name string, fn KernelFunc, p LaunchParams) (*Result, error) {
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
		w := newWorker(d, name, fn, p, numGroups)
		defer w.stop()
		for {
			gid := int(nextGroup.Add(1) - 1)
			if gid >= numGroups {
				return
			}
			w.runGroup(gid, &res.Groups[gid], reportErr)
			w.yield()
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

// lane is one work-item slot of a worker: a coroutine that runs the kernel
// for whichever group the worker hands it, suspends at every Barrier, and
// yields returned=true when the kernel returns.
type lane struct {
	wi       Item
	next     func() (returned, ok bool)
	stop     func()
	panicked any
}

// worker runs work-groups one after another on one goroutine. It owns one
// reusable set of Local lane coroutines, the group context and its LDS, so a
// group costs no allocations: a launch allocates per worker and lane, never
// per work-item.
type worker struct {
	d       *Device
	name    string
	g       groupCtx
	lanes   []lane
	live    []*lane
	yielded time.Time
}

// yieldEvery bounds how long a worker runs a group's barrier rounds before
// it yields the P. Yielding only between groups is too coarse: one group of
// a small launch can run for about a millisecond, and a concurrent job's
// handlers waited that long for a P. Yielding after every round is too
// fine: launches with many short rounds lost about a quarter of their
// throughput to scheduler switches.
const yieldEvery = 100 * time.Microsecond

// yield gives the P to other runnable goroutines (a concurrent job's
// launch, an HTTP handler). A worker never parks while it runs groups, so
// without it they would wait for the scheduler's preemption.
func (w *worker) yield() {
	runtime.Gosched()
	w.yielded = time.Now() // repocheck:allow nodeterminism -- scheduling only: decides when a worker yields the P; never reaches counters or the cost model
}

func newWorker(d *Device, name string, fn KernelFunc, p LaunchParams, numGroups int) *worker {
	w := &worker{
		d:     d,
		name:  name,
		g:     groupCtx{local: p.Local, globalSize: p.Global, numGroups: numGroups},
		lanes: make([]lane, p.Local),
		live:  make([]*lane, 0, p.Local),
	}
	if p.LDSFloats > 0 {
		w.g.lds = make([]float32, p.LDSFloats)
	}
	for i := range w.lanes {
		l := &w.lanes[i]
		l.wi = Item{g: &w.g, local: i}
		l.next, l.stop = iter.Pull(func(yield func(bool) bool) {
			l.wi.yield = yield
			for {
				l.run(fn)
				if !yield(true) {
					return
				}
			}
		})
	}
	return w
}

// run executes the kernel body once, converting a panic into l.panicked.
func (l *lane) run(fn KernelFunc) {
	defer func() { l.panicked = recover() }()
	fn(&l.wi)
}

// stop ends every lane coroutine. Lanes idle between groups return at once;
// a lane still inside a kernel unwinds through errLaneStopped.
func (w *worker) stop() {
	for i := range w.lanes {
		w.lanes[i].stop()
	}
}

// runGroup executes work-group gid in lockstep on the calling goroutine.
// Each round resumes the live lanes in ascending local id; a lane runs until
// it reaches a barrier or its kernel returns. Lanes that returned retire, so
// a barrier waits only for the lanes still running. A round in which at
// least one lane stopped at a barrier counts as one crossed barrier. The
// worker yields the P after a round once yieldEvery has passed.
//
// Lane order is part of the contract: between two barriers, lane l's
// accesses all happen before lane l+1's, so a racy kernel's output is
// deterministic (and is what the checked interpreter replays).
func (w *worker) runGroup(gid int, cost *GroupCost, reportErr func(error)) {
	local := len(w.lanes)
	w.g.id = gid
	clear(w.g.lds)
	live := w.live[:0]
	for i := range w.lanes {
		l := &w.lanes[i]
		l.wi.global = gid*local + i
		l.wi.ln = laneCounters{}
		live = append(live, l)
	}
	for len(live) > 0 {
		n := 0
		for _, l := range live {
			if returned, _ := l.next(); !returned {
				live[n] = l
				n++
			} else if l.panicked != nil {
				reportErr(fmt.Errorf("gpusim: kernel %s: work-item global=%d local=%d group=%d panicked: %v",
					w.name, l.wi.global, l.wi.local, gid, l.panicked))
			}
		}
		if n > 0 {
			cost.Barriers++
		}
		live = live[:n]
		if time.Since(w.yielded) > yieldEvery { // repocheck:allow nodeterminism -- scheduling only: decides when a worker yields the P; never reaches counters or the cost model
			w.yield()
		}
	}

	wf := w.d.Config.WavefrontSize
	for base := 0; base < local; base += wf {
		var maxIssue int64
		for l := base; l < min(base+wf, local); l++ {
			ln := &w.lanes[l].wi.ln
			if issue := ln.flops + ln.auxFlops; issue > maxIssue {
				maxIssue = issue
			}
		}
		cost.WFMaxFlops += maxIssue
	}
	for l := range w.lanes {
		ln := &w.lanes[l].wi.ln
		cost.Flops += ln.flops
		cost.AuxFlops += ln.auxFlops
		cost.BytesCoalesced += ln.bytesCoalesced
		cost.BytesScattered += ln.bytesScattered
		cost.LDSBytes += ln.ldsBytes
	}
}
