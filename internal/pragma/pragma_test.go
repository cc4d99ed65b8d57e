package pragma

import (
	"slices"
	"testing"
)

func TestParse(t *testing.T) {
	const src = `x := 1 // lint:allow a,b -- trailing reason
// lint:allow a -- standalone
y := 2
// prose that mentions lint:allow is not a pragma
//lint:allow c
z := 3 // lint:allow a -- stacked
`
	known := func(r string) bool { return r == "a" || r == "b" }
	extent := func(line int) (int, int) { return line + 1, line + 1 }
	ps, audit := Parse(src, "lint:allow", known, extent)
	if len(ps) != 4 {
		t.Fatalf("parsed %d pragmas, want 4: %+v", len(ps), ps)
	}
	want := []Pragma{
		{Rules: []string{"a", "b"}, Reason: "trailing reason", Line: 1, From: 1, To: 1},
		{Rules: []string{"a"}, Reason: "standalone", Line: 2, From: 3, To: 3},
		{Rules: []string{"c"}, Line: 5, From: 6, To: 6},
		{Rules: []string{"a"}, Reason: "stacked", Line: 6, From: 6, To: 6},
	}
	for i, w := range want {
		p := ps[i]
		if !slices.Equal(p.Rules, w.Rules) || p.Reason != w.Reason || p.Line != w.Line || p.From != w.From || p.To != w.To {
			t.Errorf("pragma %d = %+v, want %+v", i, *p, w)
		}
	}
	// Pragma 3 has no reason and names an unknown rule.
	if len(audit) != 2 || audit[0].Line != 5 || audit[1].Line != 5 || audit[0].Col != 1 {
		t.Errorf("audit = %+v, want missing-reason and unknown-rule findings at 5:1", audit)
	}

	// Line 6 is covered by the unjustified pragma 3 and by pragma 4: the
	// first in source order wins, and the justified leftovers are unused.
	if p := Match(ps, "a", 1); p != ps[0] {
		t.Errorf("Match(a, 1) = %+v", p)
	}
	if p := Match(ps, "c", 6); p != ps[2] {
		t.Errorf("Match(c, 6) = %+v", p)
	}
	if p := Match(ps, "b", 3); p != nil {
		t.Errorf("Match(b, 3) = %+v, want nil (rule not listed)", p)
	}
	unused := Unused(ps)
	if len(unused) != 2 || unused[0].Line != 2 || unused[1].Line != 6 {
		t.Errorf("Unused = %+v, want lines 2 and 6", unused)
	}
}
