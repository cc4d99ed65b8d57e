//go:build go1.23

package gpusim

import (
	"errors"
	"iter"
)

// errLaneStopped unwinds a kernel whose lane coroutine is stopped while it
// waits at a barrier, so the kernel never runs past a barrier unsynchronised.
var errLaneStopped = errors.New("gpusim: lane stopped at a barrier")

// Launch executes a per-item kernel over the NDRange and returns its counted
// work and modelled timing. Execution is functionally exact: all work-items
// run, barriers really synchronise, and buffer contents after Launch are the
// kernel's true output. A panic inside the kernel (including buffer
// overruns) is converted into an error identifying the kernel and the
// work-item.
//
// Launch is the adapter for kernels that must be written per work-item (the
// OpenCL C interpreter's): it runs on the same workers as LaunchGroups, with
// each worker stepping its group's lanes as coroutines (see lanes.run).
// Go kernels use the group form, which needs no coroutines.
func (d *Device) Launch(name string, fn KernelFunc, p LaunchParams) (*Result, error) {
	return d.launch(name, p, func(w *worker) (GroupFunc, func()) {
		ls := newLanes(w, fn)
		return ls.run, ls.stop
	})
}

// lane is one work-item slot of a worker: a coroutine that runs the kernel
// for whichever group the worker hands it, suspends at every Barrier, and
// yields returned=true when the kernel returns.
type lane struct {
	id       int
	next     func() (returned, ok bool)
	stop     func()
	panicked any
}

// lanes is a worker's reusable set of Local lane coroutines, so a group
// costs no allocations: a per-item launch allocates per worker and lane,
// never per work-item.
type lanes struct {
	w    *worker
	all  []lane
	live []*lane
}

func newLanes(w *worker, fn KernelFunc) *lanes {
	ls := &lanes{w: w, all: make([]lane, w.g.local), live: make([]*lane, 0, w.g.local)}
	for i := range ls.all {
		l := &ls.all[i]
		l.id = i
		wi := &w.g.items[i]
		l.next, l.stop = iter.Pull(func(yield func(bool) bool) {
			wi.yield = yield
			for {
				l.runKernel(fn, wi)
				if !yield(true) {
					return
				}
			}
		})
	}
	return ls
}

// runKernel executes the kernel body once, converting a panic into
// l.panicked.
func (l *lane) runKernel(fn KernelFunc, wi *Item) {
	defer func() { l.panicked = recover() }()
	fn(wi)
}

// stop ends every lane coroutine. Lanes idle between groups return at once;
// a lane still inside a kernel unwinds through errLaneStopped.
func (ls *lanes) stop() {
	for i := range ls.all {
		ls.all[i].stop()
	}
}

// run is the group function of a per-item launch: it executes the group in
// lockstep on the worker goroutine. Each round resumes the live lanes in
// ascending local id; a lane runs until it reaches a barrier or its kernel
// returns. Lanes that returned retire, so a barrier waits only for the
// lanes still running. A round in which at least one lane stopped at a
// barrier is one Group.Barrier.
//
// Lane order is part of the contract: between two barriers, lane l's
// accesses all happen before lane l+1's, so a racy kernel's output is
// deterministic (and is what the checked interpreter replays).
func (ls *lanes) run(g *Group) {
	live := ls.live[:0]
	for i := range ls.all {
		live = append(live, &ls.all[i])
	}
	for len(live) > 0 {
		n := 0
		for _, l := range live {
			if returned, _ := l.next(); !returned {
				live[n] = l
				n++
			} else if l.panicked != nil {
				ls.w.fail(l.id, l.panicked)
			}
		}
		live = live[:n]
		if n > 0 {
			g.Barrier()
		}
	}
}
