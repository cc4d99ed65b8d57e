package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/bh"
	"repro/internal/body"
	"repro/internal/gpusim"
)

// HostPolicy is the refit-vs-rebuild hook of the host-side pipeline. The
// default (zero value) rebuilds the octree from scratch on every evaluation
// — the historical behaviour, under which the modelled pipeline and all
// plan-equivalence goldens are bitwise unchanged. A RebuildEvery of k > 1
// rebuilds only every k-th evaluation and refits in between: the topology
// and Index permutation are kept, summaries (COM/mass/bounds) are refreshed
// bottom-up, and the walk lists are reconstructed against the refitted
// summaries — trading a small force-accuracy drift for a host stage that is
// one bottom-up pass instead of a full sort+build.
type HostPolicy struct {
	// RebuildEvery is the full-rebuild cadence; <= 1 rebuilds every step.
	RebuildEvery int
}

// bhDescStride is the int32 stride of one walk descriptor:
// [bodyFirst, bodyCount, listBase, listLen].
const bhDescStride = 4

// bhHostData is the host-side product of the CPU half of the treecode
// pipeline (tree build + walk/interaction-list construction), flattened into
// the buffers the w- and jw-parallel kernels consume. Every plan holds one
// as a value: the builder and the flattened buffers are pooled, so steps
// 2..K of a run rewrite the same memory (grow-only, like planBase's device
// buffers) and the steady state allocates nothing on the host side.
type bhHostData struct {
	// builder owns the tree/walk arenas; tree and walks point into it and
	// are valid until the next build call.
	builder bh.Builder

	tree  *bh.Tree
	walks *bh.WalkSet

	// sinceRebuild counts evaluations since the last full rebuild, for the
	// HostPolicy refit cadence.
	sinceRebuild int

	// wallSeconds is the measured wall-clock cost of the most recent build
	// call (tree + walks + flatten), exported as RunProfile.HostBuildSeconds.
	wallSeconds float64

	numNodes int
	numWalks int

	// srcF4 holds interaction sources as x,y,z,m float4s: first the tree
	// cells (centre of mass), then the bodies in original order.
	srcF4 []float32
	// posmSorted holds the bodies in tree (Index) order, so a walk's bodies
	// are a contiguous, coalescible range.
	posmSorted []float32
	// lists is the concatenation of every walk's interaction list; entries
	// are indices into srcF4's float4s (cell ni -> ni, body bi ->
	// numNodes+bi), cell entries first, direct entries second — the same
	// order the CPU reference bh.WalkSet.Eval uses, so accumulation order
	// (and therefore float32 rounding) matches exactly.
	lists []int32
	// desc holds bhDescStride int32s per walk (see bhDescStride).
	desc []int32

	// interactions is the exact interaction count of the walk set.
	interactions int64

	// Modelled host-side seconds (paper-era CPU) for the build, split for
	// the PTPM reports.
	treeSeconds float64
	listSeconds float64
}

// build runs the CPU half of the pipeline: build (or, per policy, refit)
// the octree, derive group walks with at most groupCap bodies (sub-split so
// no walk exceeds maxBodies, the kernel's lane count), and flatten
// everything into the pooled buffers. workers caps the build parallelism
// (0 = GOMAXPROCS). The measured wall-clock of the whole call lands in
// d.wallSeconds.
func (d *bhHostData) build(s *body.System, opt bh.Options, groupCap, maxBodies int, host gpusim.HostModel, policy HostPolicy, workers int) error {
	if groupCap > maxBodies {
		groupCap = maxBodies
	}
	if opt.LeafCap > groupCap {
		opt.LeafCap = groupCap
	}
	start := time.Now() // repocheck:allow nodeterminism -- measured host wall time, reported in JobPerf only; never feeds the cost model
	if opt.Trace != nil {
		sp := opt.Trace.Start("host data build", "host").Track("bh").Arg("n", s.N())
		defer sp.End()
	}
	n := s.N()
	d.builder.Workers = workers

	// Refit-vs-rebuild policy: a refit is only sound against the same
	// system the current topology was built over; anything else (first
	// call, a new job on a pooled engine, a resize) forces a rebuild.
	every := policy.RebuildEvery
	canRefit := every > 1 && d.tree != nil && d.tree.System() == s &&
		len(d.tree.Index) == n && d.sinceRebuild+1 < every
	if canRefit {
		d.tree.Refit()
		d.sinceRebuild++
		d.treeSeconds = host.TreeRefitSeconds(n)
	} else {
		tree, err := d.builder.BuildInto(s, opt)
		if err != nil {
			return err
		}
		d.tree = tree
		d.sinceRebuild = 0
		d.treeSeconds = host.TreeBuildSeconds(n)
	}
	walks, err := d.builder.BuildWalksInto(d.tree, groupCap)
	if err != nil {
		return err
	}
	d.walks = walks
	d.numNodes = len(d.tree.Nodes)

	// Sources: cells then bodies.
	if cap(d.srcF4) < 4*(d.numNodes+n) {
		d.srcF4 = make([]float32, 4*(d.numNodes+n))
	}
	d.srcF4 = d.srcF4[:4*(d.numNodes+n)]
	for i := range d.tree.Nodes {
		nd := &d.tree.Nodes[i]
		d.srcF4[4*i+0] = nd.COM.X
		d.srcF4[4*i+1] = nd.COM.Y
		d.srcF4[4*i+2] = nd.COM.Z
		d.srcF4[4*i+3] = nd.Mass
	}
	for bi := 0; bi < n; bi++ {
		base := 4 * (d.numNodes + bi)
		d.srcF4[base+0] = s.Pos[bi].X
		d.srcF4[base+1] = s.Pos[bi].Y
		d.srcF4[base+2] = s.Pos[bi].Z
		d.srcF4[base+3] = s.Mass[bi]
	}

	// Bodies in tree order.
	if cap(d.posmSorted) < 4*n {
		d.posmSorted = make([]float32, 4*n)
	}
	d.posmSorted = d.posmSorted[:4*n]
	for slot, bi := range d.tree.Index {
		d.posmSorted[4*slot+0] = s.Pos[bi].X
		d.posmSorted[4*slot+1] = s.Pos[bi].Y
		d.posmSorted[4*slot+2] = s.Pos[bi].Z
		d.posmSorted[4*slot+3] = s.Mass[bi]
	}

	// Lists and descriptors; walks wider than maxBodies are split into
	// sub-walks sharing one list (possible only for depth-capped leaves of
	// pathological inputs).
	d.lists = d.lists[:0]
	d.desc = d.desc[:0]
	d.interactions = 0
	for wi := range d.walks.Walks {
		w := &d.walks.Walks[wi]
		base := int32(len(d.lists))
		d.lists = append(d.lists, w.NodeList...)
		for _, bj := range w.DirectList {
			d.lists = append(d.lists, int32(d.numNodes)+bj)
		}
		llen := int32(w.ListLen())
		for off := int32(0); off < w.Count; off += int32(maxBodies) {
			cnt := w.Count - off
			if cnt > int32(maxBodies) {
				cnt = int32(maxBodies)
			}
			d.desc = append(d.desc, w.First+off, cnt, base, llen)
			d.interactions += int64(cnt) * int64(llen)
		}
	}
	d.numWalks = len(d.desc) / bhDescStride
	if d.numWalks == 0 {
		return fmt.Errorf("core: no walks produced for %d bodies", n)
	}

	d.listSeconds = host.ListBuildSeconds(int64(len(d.lists)))
	d.wallSeconds = time.Since(start).Seconds() // repocheck:allow nodeterminism -- measured host wall time, reported in JobPerf only; never feeds the cost model
	return nil
}

// scatterAcc copies the accelerations of the listed walks' bodies from tree
// order back to body order: every walk for a single-device result, one
// device's shard when the walks were split across devices.
func (d *bhHostData) scatterAcc(s *body.System, walks []int32, accSorted []float32) {
	for _, w := range walks {
		first := int(d.desc[int(w)*bhDescStride+0])
		count := int(d.desc[int(w)*bhDescStride+1])
		for slot := first; slot < first+count; slot++ {
			bi := d.tree.Index[slot]
			s.Acc[bi].X = accSorted[4*slot+0]
			s.Acc[bi].Y = accSorted[4*slot+1]
			s.Acc[bi].Z = accSorted[4*slot+2]
		}
	}
}

// walkIDs returns the ids of every walk, 0..numWalks-1.
func (d *bhHostData) walkIDs() []int32 {
	ids := make([]int32, d.numWalks)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// lpt partitions walk ids into bins with the longest-processing-time greedy
// heuristic on list length x body count: it sorts ids in place by
// decreasing cost (ties keep their order), then each walk joins the
// least-loaded bin (ties to the lowest index). This is the jw-parallel load
// balancing, applied twice: once to shard the walks across devices, once to
// balance each shard into the walk queues its work-groups drain. A
// work-group drains its whole queue, so queues must carry near-equal total
// work.
func (d *bhHostData) lpt(ids []int32, bins int) [][]int32 {
	cost := func(w int32) int64 {
		return int64(d.desc[int(w)*bhDescStride+3]) * max(int64(d.desc[int(w)*bhDescStride+1]), 1)
	}
	slices.SortStableFunc(ids, func(a, b int32) int { return cmp.Compare(cost(b), cost(a)) })

	out := make([][]int32, bins)
	load := make([]int64, bins)
	for _, w := range ids {
		k := 0
		for j := 1; j < bins; j++ {
			if load[j] < load[k] {
				k = j
			}
		}
		out[k] = append(out[k], w)
		load[k] += cost(w)
	}
	return out
}

// queueTables flattens walk queues into the jw kernel's tables: the
// concatenated queue contents plus a [base, len] pair per queue.
func queueTables(queues [][]int32) (queueWalks, queueDesc []int32) {
	queueDesc = make([]int32, 0, 2*len(queues))
	for _, q := range queues {
		queueDesc = append(queueDesc, int32(len(queueWalks)), int32(len(q)))
		queueWalks = append(queueWalks, q...)
	}
	return queueWalks, queueDesc
}
