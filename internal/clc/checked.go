package clc

import (
	"fmt"
	"sync"

	"repro/internal/gpusim"
)

// Checked interpreter mode: a shadow access log over __local memory with a
// barrier-based happens-before relation, the dynamic counterpart of the
// static localrace and barrierdiverge analyzers (internal/clc/analysis).
//
// Every work-item carries a barrier phase counter (the number of barriers it
// has executed). Two __local accesses to the same slot by different lanes of
// one group race exactly when they carry the same phase and at least one is
// a write — the group barrier is the only happens-before edge the language
// offers. Keying the check on the phase, not on wall-clock interleaving,
// makes detection independent of lane order: gpusim runs a group's lanes in
// ascending local id between barriers, but the shadow records are built so
// that any order of the racing accesses traps (see slotShadow).
//
// Barrier divergence is detected at retirement: work-items of one group
// that executed different barrier counts took divergent paths through a
// barrier (undefined behaviour on real hardware; on the simulated device the
// group silently desynchronises). Bounds are already checked on every access
// in both modes (__local in this interpreter, __global in gpusim).
//
// Checked mode costs a mutex per group per access, so it is opt-in:
// BindChecked here, BuildOptions.Checked at the cl layer.

// CheckedState is the shadow store of one checked launch. It must not be
// shared between launches (phases restart at zero).
type CheckedState struct {
	mu     sync.Mutex
	groups map[int]*groupShadow
}

// NewCheckedState returns an empty shadow store for one launch.
func NewCheckedState() *CheckedState {
	return &CheckedState{groups: map[int]*groupShadow{}}
}

type groupShadow struct {
	mu        sync.Mutex
	slots     map[int32]*slotShadow
	exitPhase int
	exitSet   bool
}

// slotShadow is the shadow record of one __local float slot within the
// current phase: the last writer, and the reader set reduced to its first
// lane plus a second, distinct lane if there is one. A write races with a
// same-phase read exactly when some lane other than the writer read the
// slot; the first reader alone cannot tell, because the writer may itself
// be the first reader, so a second reader is kept as the witness. The last
// writer is enough for the other conflicts: a second writer, or a reader
// after a write, finds it, and a different writer would already have
// trapped on overwriting it.
type slotShadow struct {
	wLane, wPhase int
	hasW          bool
	rLane, rPhase int
	hasR          bool
	rOther        int // a same-phase reader other than rLane, or -1
}

func (st *CheckedState) group(id int) *groupShadow {
	st.mu.Lock()
	defer st.mu.Unlock()
	g := st.groups[id]
	if g == nil {
		g = &groupShadow{slots: map[int32]*slotShadow{}}
		st.groups[id] = g
	}
	return g
}

// checkedItem is the per-work-item view of the shadow state.
type checkedItem struct {
	g     *groupShadow
	lane  int
	phase int
}

func (st *CheckedState) item(wi *gpusim.Item) *checkedItem {
	return &checkedItem{g: st.group(wi.GroupID()), lane: wi.LocalID()}
}

// access records one __local access and traps on a same-phase cross-lane
// conflict. The panic unwinds into the launch error, like every other
// kernel trap.
func (c *checkedItem) access(slot int32, write bool, tok Token) {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	s := c.g.slots[slot]
	if s == nil {
		s = &slotShadow{}
		c.g.slots[slot] = s
	}
	if s.hasW && s.wPhase == c.phase && s.wLane != c.lane {
		kind := "read"
		if write {
			kind = "write"
		}
		panic(fmt.Sprintf("clc: %s: checked: localrace: %s of __local slot %d by work-item %d races with a write by work-item %d in the same barrier phase",
			tok.Pos(), kind, slot, c.lane, s.wLane))
	}
	if write {
		if s.hasR && s.rPhase == c.phase {
			if other := s.otherReader(c.lane); other >= 0 {
				panic(fmt.Sprintf("clc: %s: checked: localrace: write of __local slot %d by work-item %d races with a read by work-item %d in the same barrier phase",
					tok.Pos(), slot, c.lane, other))
			}
		}
		s.wLane, s.wPhase, s.hasW = c.lane, c.phase, true
	} else if s.hasR && s.rPhase == c.phase {
		if s.rOther < 0 && c.lane != s.rLane {
			s.rOther = c.lane
		}
	} else {
		s.rLane, s.rPhase, s.hasR, s.rOther = c.lane, c.phase, true, -1
	}
}

// otherReader returns a lane other than lane that read the slot in the
// recorded phase, or -1 if none did.
func (s *slotShadow) otherReader(lane int) int {
	if s.rLane != lane {
		return s.rLane
	}
	return s.rOther
}

// barrier advances this work-item's phase.
func (c *checkedItem) barrier() { c.phase++ }

// done is called when the work-item's kernel body returns: every item of a
// group must retire with the same barrier count, otherwise a barrier was
// divergent (or skipped by a divergent early return).
func (c *checkedItem) done(kernel string) {
	c.g.mu.Lock()
	defer c.g.mu.Unlock()
	if c.g.exitSet && c.g.exitPhase != c.phase {
		panic(fmt.Sprintf("clc: checked: barrierdiverge: kernel %q: work-items of one group retired after %d and %d barriers (barrier under divergent control flow)",
			kernel, c.g.exitPhase, c.phase))
	}
	c.g.exitPhase, c.g.exitSet = c.phase, true
}
