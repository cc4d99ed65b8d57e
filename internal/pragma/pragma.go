// Package pragma parses the justified suppression comments of the
// repository's two linters — repocheck over Go sources ("repocheck:allow")
// and kernelcheck over OpenCL C kernels ("kernelcheck:allow"):
//
//	// <marker> rule1,rule2 -- why this is safe
//
// The marker must start the comment, so prose that merely mentions it is
// not a pragma. A pragma at the end of a code line covers that line; on its
// own line it covers an extent the caller computes for its language (the
// next Go statement from the AST, or the next C line and the brace block it
// opens). Pragmas are audited: a missing reason, an unknown rule name, and a
// justified pragma that matches no finding are each reported.
package pragma

import (
	"fmt"
	"slices"
	"strings"
)

// Pragma is one parsed suppression comment.
type Pragma struct {
	Rules  []string
	Reason string
	// Line is the comment's line; From and To bound the covered lines,
	// inclusive (all 1-based).
	Line, From, To int

	used bool
}

// Finding is one audit finding about a pragma, for the caller to report
// under its "suppression" rule.
type Finding struct {
	Line, Col int
	Message   string
}

// Parse scans src for pragmas led by marker. known reports whether a rule
// name is registered; extent returns the covered [from, to] lines of a
// standalone pragma on the given line. The findings are the missing-reason
// and unknown-rule audits, in source order.
func Parse(src, marker string, known func(rule string) bool, extent func(line int) (from, to int)) ([]*Pragma, []Finding) {
	var ps []*Pragma
	var audit []Finding
	for i, line := range strings.Split(src, "\n") {
		idx := strings.Index(line, "//")
		if idx < 0 {
			continue
		}
		rest := strings.TrimLeft(line[idx+2:], " \t")
		if !strings.HasPrefix(rest, marker) {
			continue
		}
		p := &Pragma{Line: i + 1}
		spec := strings.TrimSpace(strings.TrimPrefix(rest, marker))
		if cut := strings.Index(spec, "--"); cut >= 0 {
			spec, p.Reason = strings.TrimSpace(spec[:cut]), strings.TrimSpace(spec[cut+2:])
		}
		for _, r := range strings.Split(spec, ",") {
			if r = strings.TrimSpace(r); r != "" {
				p.Rules = append(p.Rules, r)
			}
		}
		if p.Reason == "" {
			audit = append(audit, Finding{Line: p.Line, Col: idx + 1,
				Message: fmt.Sprintf("suppression without a justification (use: %s rule -- reason)", marker)})
		}
		for _, r := range p.Rules {
			if !known(r) {
				audit = append(audit, Finding{Line: p.Line, Col: idx + 1,
					Message: fmt.Sprintf("suppression names unknown rule %q", r)})
			}
		}
		if strings.TrimSpace(line[:idx]) != "" {
			p.From, p.To = p.Line, p.Line // trailing: covers its own line
		} else {
			p.From, p.To = extent(p.Line)
		}
		ps = append(ps, p)
	}
	return ps, audit
}

// Match returns the first pragma of ps (in source order) that covers rule
// at line and marks it used, or nil. Stacked pragmas over one finding thus
// resolve to the first; the others stay unused and Unused reports them.
func Match(ps []*Pragma, rule string, line int) *Pragma {
	for _, p := range ps {
		if line >= p.From && line <= p.To && slices.Contains(p.Rules, rule) {
			p.used = true
			return p
		}
	}
	return nil
}

// Unused reports every justified pragma of ps that Match never returned.
// An unjustified pragma is not reported again: its missing reason already
// is.
func Unused(ps []*Pragma) []Finding {
	var out []Finding
	for _, p := range ps {
		if !p.used && p.Reason != "" {
			out = append(out, Finding{Line: p.Line, Col: 1,
				Message: fmt.Sprintf("suppression for %s matches no finding", strings.Join(p.Rules, ","))})
		}
	}
	return out
}
