package bh

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/body"
	"repro/internal/vec"
)

// This file keeps the original construction — a recursive octree build with
// per-node counting-sort partitions, a recursive bottom-up summary, and a
// walk build chunked across GOMAXPROCS goroutines — as the independent
// oracle the Builder's Morton path is checked against bit for bit.

// oracleBuild constructs the octree for the bodies of s recursively.
func oracleBuild(s *body.System, opt Options) (*Tree, error) {
	opt.fill()
	n := s.N()
	if n == 0 {
		return nil, fmt.Errorf("bh: cannot build a tree over zero bodies")
	}
	t := &Tree{
		Nodes: make([]Node, 0, 2*n/opt.LeafCap+16),
		Index: make([]int32, n),
		Opt:   opt,
		sys:   s,
	}
	for i := range t.Index {
		t.Index[i] = int32(i)
	}
	center, half := rootCell(s)
	scratch := make([]int32, n)
	t.oracleNode(center, half, 0, int32(n), 0, scratch)
	t.oracleSummarize(0)
	return t, nil
}

// oracleNode recursively constructs the node covering
// Index[first:first+count] and returns its index in t.Nodes. scratch is a
// caller-owned slice of at least n int32s: the counting-sort partition of a
// node writes through scratch[first:first+count], which is free by the time
// the children (whose ranges are disjoint sub-ranges) partition theirs.
func (t *Tree) oracleNode(center vec.V3, half float32, first, count int32, depth int, scratch []int32) int32 {
	idx := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{
		Center: center,
		Half:   half,
		First:  first,
		Count:  count,
		Leaf:   true,
	})
	for i := range t.Nodes[idx].Children {
		t.Nodes[idx].Children[i] = NoChild
	}
	if int(count) <= t.Opt.LeafCap || depth >= t.Opt.MaxDepth {
		return idx
	}

	// Partition the body range into the eight octants with a counting sort.
	var octCount [8]int32
	slice := t.Index[first : first+count]
	for _, bi := range slice {
		octCount[t.octant(center, bi)]++
	}
	var start [8]int32
	var sum int32
	for o := 0; o < 8; o++ {
		start[o] = sum
		sum += octCount[o]
	}
	tmp := scratch[first : first+count]
	cursor := start
	for _, bi := range slice {
		o := t.octant(center, bi)
		tmp[cursor[o]] = bi
		cursor[o]++
	}
	copy(slice, tmp)

	t.Nodes[idx].Leaf = false
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
		child := t.oracleNode(cc, qh, first+start[o], octCount[o], depth+1, scratch)
		t.Nodes[idx].Children[o] = child
	}
	return idx
}

// oracleSummarize fills Mass, COM and Bounds bottom-up for the subtree
// rooted at node ni.
func (t *Tree) oracleSummarize(ni int32) {
	n := &t.Nodes[ni]
	if n.Leaf {
		t.leafSummary(n)
		return
	}
	for _, ci := range n.Children {
		if ci != NoChild {
			t.oracleSummarize(ci)
		}
	}
	summarizeFromChildren(t.Nodes, ni)
}

// oracleBuildWalks decomposes t's bodies into walks of groupCap consecutive
// bodies in tree order and builds every walk's list with a fresh stack, the
// walks chunked across GOMAXPROCS goroutines.
func oracleBuildWalks(t *Tree, groupCap int) (*WalkSet, error) {
	if groupCap <= 0 {
		groupCap = 64
	}
	n := int32(t.sys.N())
	ws := &WalkSet{Tree: t, GroupCap: groupCap}
	for first := int32(0); first < n; first += int32(groupCap) {
		count := min(n-first, int32(groupCap))
		bounds := vec.Empty()
		for _, bi := range t.Index[first : first+count] {
			bounds = bounds.Extend(t.sys.Pos[bi])
		}
		ws.Walks = append(ws.Walks, Walk{First: first, Count: count, Bounds: bounds})
	}

	workers := max(min(runtime.GOMAXPROCS(0), len(ws.Walks)), 1)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(ws.Walks) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(ws.Walks))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if _, err := t.buildListInto(&ws.Walks[i], make([]int32, 0, 64)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ws, nil
}
