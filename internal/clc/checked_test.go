package clc

import (
	"fmt"
	"strings"
	"testing"
)

// access is one __local access of a replayed phase.
type access struct {
	slot  int32
	write bool
}

// replayPhase feeds each lane's accesses of one barrier phase to a fresh
// shadow store, lane by lane in the given order, and returns the trap
// message ("" if none).
func replayPhase(lanes [][]access, order []int) (trap string) {
	g := NewCheckedState().group(0)
	defer func() {
		if r := recover(); r != nil {
			trap = fmt.Sprint(r)
		}
	}()
	for _, l := range order {
		c := &checkedItem{g: g, lane: l, phase: 1}
		for _, a := range lanes[l] {
			c.access(a.slot, a.write, Token{Line: 1, Col: 1})
		}
	}
	return ""
}

func ascending(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

func descending(n int) []int {
	o := ascending(n)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		o[i], o[j] = o[j], o[i]
	}
	return o
}

// TestCheckedRaceAnyLaneOrder: the tree reduction without a barrier between
// its steps (part[l] += part[l+s] for s = 2, 1 over four lanes) races lane 0's
// read of part[1] with lane 1's read-then-write of it. The trap must not
// depend on which lane runs first: lane 1's own read of part[1] must not hide
// lane 0's.
func TestCheckedRaceAnyLaneOrder(t *testing.T) {
	const n = 4
	lanes := make([][]access, n)
	for l := range lanes {
		for s := n / 2; s > 0; s /= 2 {
			if l < s {
				lanes[l] = append(lanes[l],
					access{int32(l), false}, access{int32(l + s), false}, access{int32(l), true})
			}
		}
	}
	for name, order := range map[string][]int{"ascending": ascending(n), "descending": descending(n)} {
		trap := replayPhase(lanes, order)
		if !strings.Contains(trap, "checked: localrace") {
			t.Errorf("%s lane order: no localrace trap (got %q)", name, trap)
		}
	}
}

// TestCheckedCleanPhaseAnyLaneOrder: shared reads of one slot plus each lane
// reading and updating only its own slot is race-free in every order.
func TestCheckedCleanPhaseAnyLaneOrder(t *testing.T) {
	const n = 4
	lanes := make([][]access, n)
	for l := range lanes {
		lanes[l] = []access{{n, false}, {int32(l), false}, {int32(l), true}, {int32(l), false}}
	}
	for name, order := range map[string][]int{"ascending": ascending(n), "descending": descending(n)} {
		if trap := replayPhase(lanes, order); trap != "" {
			t.Errorf("%s lane order: false trap %q", name, trap)
		}
	}
}
