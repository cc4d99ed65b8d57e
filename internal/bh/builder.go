package bh

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/body"
	"repro/internal/morton"
	"repro/internal/obs"
	"repro/internal/vec"
)

// Builder owns every arena the host-side per-step pipeline needs — node
// storage, the body permutation, Morton keys and radix scratch, per-worker
// subtree arenas, walk-traversal stacks and the walk/group buffers — so a
// steady-state step (the same system stepped repeatedly) allocates nothing:
// BuildInto and BuildWalksInto rewrite the pooled storage in place, growing
// it only when the input outgrows everything seen before.
//
// The construction itself is the Morton-ordered path: every body's octant
// path through the root cell is encoded as a 63-bit key (morton.Bits levels,
// 3 bits each, exactly the interleaved form morton.Encode produces), the
// bodies are radix-sorted along the resulting Z-order curve once, and nodes
// are then emitted top-down over contiguous key ranges — serially near the
// root, worker-parallel across disjoint subtrees below a grain cutoff. Each
// key digit is computed with the same float32 arithmetic a recursive
// top-down build uses to subdivide cells, and each leaf's body range is
// re-sorted to ascending body index (the order that build's stable
// partitions leave behind), so the resulting tree — node array, child links,
// Index permutation and float summaries — is bitwise identical to the
// recursive build's for every input. The equivalence test pins this against
// a recursive oracle.
//
// Ownership: the Tree and WalkSet returned by BuildInto/BuildWalksInto point
// into the builder's arenas and are valid until the next BuildInto /
// BuildWalksInto / Reset on the same builder. A Builder must not be shared
// between concurrent builds; distinct Builders are independent.
type Builder struct {
	// Workers caps the goroutines used for key encoding, subtree emission
	// and walk construction. 0 means GOMAXPROCS; 1 runs strictly serial —
	// no goroutines are spawned, which is the allocation-free path the CI
	// allocs/op gate pins.
	Workers int

	tree  Tree
	walks WalkSet

	keys   []uint64
	sorter morton.Sorter

	topNodes []Node
	topKids  [][8]int32
	tasks    []buildTask
	sub      []workerArena
	errs     []error

	cursor int64 // atomic task cursor for the worker pool
}

// buildTask is one subtree handed to the worker pool: the cell and body
// range to emit, and (filled by the worker) where the emitted nodes landed.
type buildTask struct {
	center       vec.V3
	half         float32
	first, count int32
	depth        int32

	worker       int32
	base, nnodes int32
}

// workerArena is one worker's private storage: emitted subtree nodes, the
// counting-sort scratch for ranges deeper than the key horizon, and the
// tree-traversal stack for walk construction.
type workerArena struct {
	nodes []Node
	part  []int32
	stack []int32
}

var noChildren = [8]int32{NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild, NoChild}

func (b *Builder) workers() int {
	w := b.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Reset releases every pooled arena so the memory can be reclaimed. The
// builder stays usable: the next BuildInto simply starts cold.
func (b *Builder) Reset() {
	b.tree = Tree{}
	b.walks = WalkSet{}
	b.keys = nil
	b.sorter = morton.Sorter{}
	b.topNodes = nil
	b.topKids = nil
	b.tasks = nil
	b.sub = nil
	b.errs = nil
}

// pathKey encodes p's octant path through a perfectly subdivided octree
// rooted at (center, half): one 3-bit digit per level, most significant
// first, morton.Bits levels. Every digit is computed with exactly the
// float32 comparisons and child-centre arithmetic of a recursive build, so
// a stable sort by key groups bodies precisely as that build's per-level
// counting sorts would.
func pathKey(p, center vec.V3, half float32) uint64 {
	var ix, iy, iz uint32
	for d := 0; d < morton.Bits; d++ {
		o := 0
		if p.X >= center.X {
			o |= 1
		}
		if p.Y >= center.Y {
			o |= 2
		}
		if p.Z >= center.Z {
			o |= 4
		}
		ix = ix<<1 | uint32(o&1)
		iy = iy<<1 | uint32(o>>1&1)
		iz = iz<<1 | uint32(o>>2&1)
		qh := half / 2
		center.X += qh * octSign(o, 0)
		center.Y += qh * octSign(o, 1)
		center.Z += qh * octSign(o, 2)
		half = qh
	}
	return morton.Encode(ix, iy, iz)
}

// keyDigit extracts the octant digit for the given depth (< morton.Bits).
func keyDigit(key uint64, depth int32) int32 {
	return int32(key>>(3*uint(morton.Bits-1-int(depth)))) & 7
}

// BuildInto constructs the octree for the bodies of s into the builder's
// pooled tree. The system is not modified. The returned tree is valid until
// the next BuildInto or Reset.
func (b *Builder) BuildInto(s *body.System, opt Options) (*Tree, error) {
	opt.fill()
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("bh: cannot build a tree over zero bodies")
	}
	// The span (and especially its boxed Args) is skipped entirely when
	// tracing is off: this path must stay allocation-free.
	var sp *obs.Span
	if opt.Trace != nil {
		sp = opt.Trace.Start("tree build", "host").Track("bh").Arg("n", n).Arg("path", "morton")
	}
	defer sp.End()

	workers := b.workers()
	t := &b.tree
	t.Opt = opt
	t.sys = s
	t.quads = nil
	if cap(t.Index) < n {
		t.Index = make([]int32, n)
	}
	t.Index = t.Index[:n]
	if cap(b.keys) < n {
		b.keys = make([]uint64, n)
	}
	b.keys = b.keys[:n]

	center, half := rootCell(s)

	// Phase 1: octant-path keys, parallel over bodies. The serial path is a
	// plain loop — no closure, no goroutines — so it allocates nothing.
	if workers == 1 || n < 2*workers {
		b.encodeKeys(0, n, center, half)
	} else {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				b.encodeKeys(lo, hi, center, half)
			}(lo, hi)
		}
		wg.Wait()
	}

	// Phase 2: one stable radix sort along the Z-order curve. After this,
	// every octree cell at every level owns a contiguous range of
	// (keys, Index), and ties — coincident bodies — stay in ascending body
	// order.
	b.sorter.Sort(b.keys, t.Index)

	// Phase 3: serial expansion of the top of the tree into subtree tasks.
	// The grain keeps roughly 8 x workers tasks; Workers == 1 degenerates to
	// a single task covering the root, skipping the top pass entirely.
	b.topNodes = b.topNodes[:0]
	b.topKids = b.topKids[:0]
	b.tasks = b.tasks[:0]
	cutoff := int32(n / (8 * workers))
	if cutoff < int32(opt.LeafCap) {
		cutoff = int32(opt.LeafCap)
	}
	if workers == 1 {
		cutoff = int32(n)
	}
	rootRef := b.expandTop(center, half, 0, int32(n), 0, cutoff)

	// Phase 4: emit subtrees into per-worker arenas, in parallel.
	for len(b.sub) < workers {
		b.sub = append(b.sub, workerArena{})
	}
	for w := 0; w < workers; w++ {
		b.sub[w].nodes = b.sub[w].nodes[:0]
	}
	b.runTasks(workers)

	// Phase 5: stitch the final node array in DFS pre-order — the exact
	// order the recursive build appends in — fixing up arena-local child
	// indices and summarizing the top nodes from their children.
	total := len(b.topNodes)
	for i := range b.tasks {
		total += int(b.tasks[i].nnodes)
	}
	if cap(t.Nodes) < total {
		t.Nodes = make([]Node, 0, total)
	}
	t.Nodes = t.Nodes[:0]
	b.assemble(rootRef)

	if sp != nil {
		sp.Arg("nodes", len(t.Nodes))
	}
	return t, nil
}

// expandTop grows the serial top of the tree. Ranges at or below the grain
// cutoff (or past the key horizon / depth cap) become tasks for the worker
// pool; everything above is partitioned here by key digit. Returned refs:
// >= 0 is an index into topNodes, <= -2 encodes task -(ref+2).
func (b *Builder) expandTop(center vec.V3, half float32, first, count, depth, cutoff int32) int32 {
	t := &b.tree
	if count <= cutoff || int(depth) >= t.Opt.MaxDepth || depth >= morton.Bits {
		b.tasks = append(b.tasks, buildTask{center: center, half: half, first: first, count: count, depth: depth})
		return -(int32(len(b.tasks)-1) + 2)
	}
	ti := int32(len(b.topNodes))
	b.topNodes = append(b.topNodes, Node{Center: center, Half: half, First: first, Count: count})
	b.topKids = append(b.topKids, noChildren)

	// The range is key-sorted, so each octant is a contiguous run of the
	// digit at this depth; a linear scan finds the boundaries.
	qh := half / 2
	lo := first
	for o := int32(0); o < 8; o++ {
		hi := lo
		for hi < first+count && keyDigit(b.keys[hi], depth) == o {
			hi++
		}
		if hi == lo {
			continue
		}
		cc := vec.V3{
			X: center.X + qh*octSign(int(o), 0),
			Y: center.Y + qh*octSign(int(o), 1),
			Z: center.Z + qh*octSign(int(o), 2),
		}
		ref := b.expandTop(cc, qh, lo, hi-lo, depth+1, cutoff)
		b.topKids[ti][o] = ref
		lo = hi
	}
	return ti
}

// runTasks drains the task list: inline when serial, over a worker pool
// otherwise. Each worker owns its arena, and tasks touch disjoint Index
// ranges, so the only coordination is the atomic cursor.
func (b *Builder) runTasks(workers int) {
	if workers > len(b.tasks) {
		workers = len(b.tasks)
	}
	if workers <= 1 {
		for i := range b.tasks {
			b.buildSubtree(0, &b.tasks[i])
		}
		return
	}
	atomic.StoreInt64(&b.cursor, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&b.cursor, 1)) - 1
				if i >= len(b.tasks) {
					return
				}
				b.buildSubtree(w, &b.tasks[i])
			}
		}(w)
	}
	wg.Wait()
}

func (b *Builder) buildSubtree(w int, tk *buildTask) {
	ar := &b.sub[w]
	tk.worker = int32(w)
	tk.base = int32(len(ar.nodes))
	b.emitSub(ar, tk.center, tk.half, tk.first, tk.count, tk.depth)
	tk.nnodes = int32(len(ar.nodes)) - tk.base
}

// emitSub recursively emits the subtree over Index[first:first+count] into
// the worker's arena (child indices arena-local), computing summaries
// bottom-up. Above the key horizon the children are read off the sorted
// keys; past it — coincident bodies sharing a full key — it falls back to
// the recursive build's counting sort, through the worker's pooled scratch.
func (b *Builder) emitSub(ar *workerArena, center vec.V3, half float32, first, count, depth int32) int32 {
	t := &b.tree
	idx := int32(len(ar.nodes))
	ar.nodes = append(ar.nodes, Node{
		Center:   center,
		Half:     half,
		First:    first,
		Count:    count,
		Children: noChildren,
		Leaf:     true,
	})
	if int(count) <= t.Opt.LeafCap || int(depth) >= t.Opt.MaxDepth {
		// The radix sort ordered the bucket's bodies by digits deeper than
		// the leaf; the recursive build's stable partitions leave them in
		// ascending body order instead. Restore it — Index order is part of
		// the bitwise contract (summaries, walks and the GPU's sorted body
		// buffer all consume it).
		slices.Sort(t.Index[first : first+count])
		t.leafSummary(&ar.nodes[idx])
		return idx
	}

	var octCount, start [8]int32
	if depth < morton.Bits {
		for i := first; i < first+count; i++ {
			octCount[keyDigit(b.keys[i], depth)]++
		}
	} else {
		// All bodies here share a full key (bitwise-equal positions along
		// the whole path), so the sorted range is still in ascending body
		// order and the legacy partition applies verbatim.
		slice := t.Index[first : first+count]
		for _, bi := range slice {
			octCount[t.octant(center, bi)]++
		}
	}
	var sum int32
	for o := 0; o < 8; o++ {
		start[o] = sum
		sum += octCount[o]
	}
	if depth >= morton.Bits {
		if cap(ar.part) < int(count) {
			ar.part = make([]int32, count)
		}
		tmp := ar.part[:count]
		slice := t.Index[first : first+count]
		cursor := start
		for _, bi := range slice {
			o := t.octant(center, bi)
			tmp[cursor[o]] = bi
			cursor[o]++
		}
		copy(slice, tmp)
	}

	ar.nodes[idx].Leaf = false
	qh := half / 2
	for o := 0; o < 8; o++ {
		if octCount[o] == 0 {
			continue
		}
		cc := vec.V3{
			X: center.X + qh*octSign(o, 0),
			Y: center.Y + qh*octSign(o, 1),
			Z: center.Z + qh*octSign(o, 2),
		}
		child := b.emitSub(ar, cc, qh, first+start[o], octCount[o], depth+1)
		ar.nodes[idx].Children[o] = child
	}
	summarizeFromChildren(ar.nodes, idx)
	return idx
}

// assemble appends the subtree behind ref to the final node array in DFS
// pre-order and returns its root's final index. Task blocks are bulk-copied
// with a constant child-index offset; top nodes recurse and then summarize
// from their (already summarized) children.
func (b *Builder) assemble(ref int32) int32 {
	t := &b.tree
	if ref <= -2 {
		tk := &b.tasks[-(ref + 2)]
		base := int32(len(t.Nodes))
		t.Nodes = append(t.Nodes, b.sub[tk.worker].nodes[tk.base:tk.base+tk.nnodes]...)
		if off := base - tk.base; off != 0 {
			for i := base; i < base+tk.nnodes; i++ {
				ch := &t.Nodes[i].Children
				for o := 0; o < 8; o++ {
					if ch[o] != NoChild {
						ch[o] += off
					}
				}
			}
		}
		return base
	}
	fi := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, b.topNodes[ref])
	t.Nodes[fi].Children = noChildren
	for o := 0; o < 8; o++ {
		cref := b.topKids[ref][o]
		if cref == NoChild {
			continue
		}
		ci := b.assemble(cref)
		t.Nodes[fi].Children[o] = ci
	}
	summarizeFromChildren(t.Nodes, fi)
	return fi
}

// BuildWalksInto decomposes t's bodies into walks (see Tree.BuildWalks)
// into the builder's pooled WalkSet: walk headers, per-walk interaction
// lists and traversal stacks are all reused, so the steady state allocates
// nothing. The returned set is valid until
// the next BuildWalksInto or Reset.
func (b *Builder) BuildWalksInto(t *Tree, groupCap int) (*WalkSet, error) {
	if groupCap <= 0 {
		groupCap = 64
	}
	var sp *obs.Span
	if t.Opt.Trace != nil {
		sp = t.Opt.Trace.Start("walk/list build", "host").Track("bh").Arg("groupCap", groupCap)
	}
	defer sp.End()

	n := int32(t.sys.N())
	ws := &b.walks
	ws.Tree = t
	ws.GroupCap = groupCap
	numWalks := int((n + int32(groupCap) - 1) / int32(groupCap))
	if cap(ws.Walks) < numWalks {
		grown := make([]Walk, numWalks)
		// Keep the old entries: their NodeList/DirectList capacities are the
		// pooled storage.
		copy(grown, ws.Walks[:cap(ws.Walks)])
		ws.Walks = grown
	}
	ws.Walks = ws.Walks[:numWalks]

	workers := b.workers()
	if workers > numWalks {
		workers = numWalks
	}
	for len(b.sub) < workers {
		b.sub = append(b.sub, workerArena{})
	}
	if workers <= 1 {
		if err := b.buildWalkRange(0, 0, numWalks, groupCap); err != nil {
			return nil, err
		}
	} else {
		if cap(b.errs) < workers {
			b.errs = make([]error, workers)
		}
		errs := b.errs[:workers]
		var wg sync.WaitGroup
		chunk := (numWalks + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > numWalks {
				hi = numWalks
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			// groupCap is an explicit parameter: capturing the (mutated)
			// variable by reference would force it to the heap on every
			// call, including the serial allocation-free path.
			go func(w, lo, hi, gcap int) {
				defer wg.Done()
				errs[w] = b.buildWalkRange(w, lo, hi, gcap)
			}(w, lo, hi, groupCap)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				return nil, errs[w]
			}
			errs[w] = nil
		}
	}

	if sp != nil {
		sp.Arg("walks", len(ws.Walks)).Arg("interactions", ws.Interactions())
	}
	return ws, nil
}

// buildWalkRange fills walks [lo, hi) — header, bounds and interaction list
// — reusing worker w's traversal stack and each walk's list capacity.
func (b *Builder) buildWalkRange(w, lo, hi, groupCap int) error {
	t := b.walks.Tree
	n := int32(t.sys.N())
	ar := &b.sub[w]
	for i := lo; i < hi; i++ {
		wk := &b.walks.Walks[i]
		first := int32(i * groupCap)
		count := n - first
		if count > int32(groupCap) {
			count = int32(groupCap)
		}
		wk.First, wk.Count = first, count
		bounds := vec.Empty()
		for _, bi := range t.Index[first : first+count] {
			bounds = bounds.Extend(t.sys.Pos[bi])
		}
		wk.Bounds = bounds
		wk.NodeList = wk.NodeList[:0]
		wk.DirectList = wk.DirectList[:0]
		stack, err := t.buildListInto(wk, ar.stack)
		ar.stack = stack
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeKeys fills Index (identity) and the octant-path keys for bodies
// [lo, hi).
func (b *Builder) encodeKeys(lo, hi int, center vec.V3, half float32) {
	pos := b.tree.sys.Pos
	for i := lo; i < hi; i++ {
		b.tree.Index[i] = int32(i)
		b.keys[i] = pathKey(pos[i], center, half)
	}
}
