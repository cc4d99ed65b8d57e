// Package analysis is a vet-style static-analysis framework over the clc
// AST. Each Pass inspects one kernel (with its helper functions) and reports
// Diagnostics — rule name, severity, token position, message. The rule set
// targets the fragile GPU idioms the repository's kernel plans depend on:
// barriers under work-item-divergent control flow, __local tiles accessed
// across lanes without an intervening barrier, global indexing by unguarded
// global id, dead stores, and uncoalesced global access patterns.
//
// Findings can be silenced with a justified suppression comment in the
// kernel source:
//
//	// kernelcheck:allow rule1,rule2 -- why this is safe
//
// On its own line the pragma covers the next statement (and, when that
// statement opens a brace block, the whole block); at the end of a code line
// it covers that line. A suppression without a justification, or one that
// matches no finding, is itself reported, so stale annotations cannot
// accumulate.
//
// The severity policy: rules whose violation changes kernel *results*
// (barrierdiverge, localrace) are errors and fail cl.CreateProgram by
// default; idiom and performance rules (boundsguard, deadstore, unusedparam,
// uncoalesced) are warnings surfaced through kernelcheck, the build log and
// telemetry.
package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/clc"
	"repro/internal/pragma"
)

// Severity classifies a diagnostic.
type Severity int

// Severities. Errors reject the program at build time (cl.CreateProgram);
// warnings surface through the build log, kernelcheck and telemetry.
const (
	SevWarning Severity = iota
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding of one rule.
type Diagnostic struct {
	// Rule is the reporting pass's name (e.g. "localrace").
	Rule string
	// Sev is the rule's severity.
	Sev Severity
	// Tok locates the finding in the source.
	Tok clc.Token
	// Kernel is the kernel function under analysis ("" for program-level
	// findings such as suppression hygiene).
	Kernel string
	// Message describes the finding.
	Message string
	// Suppressed marks a finding silenced by a kernelcheck:allow pragma.
	Suppressed bool
	// SuppressReason is the pragma's justification when Suppressed.
	SuppressReason string
}

// String renders the diagnostic in file:line:col style (without the file,
// which the caller knows).
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s (%s)", d.Tok.Pos(), d.Rule, d.Message, d.Sev)
	if d.Suppressed {
		s += " [suppressed: " + d.SuppressReason + "]"
	}
	return s
}

// Context hands a pass everything it needs: the program, the kernel under
// analysis, and the shared uniformity/affine facts.
type Context struct {
	Prog *clc.Program
	Fn   *clc.Function
	Info *Info
}

// Pass is one analyzer rule.
type Pass struct {
	// Name is the rule name used in diagnostics and suppressions.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Sev is the severity of every diagnostic the pass reports.
	Sev Severity
	// Run analyzes one kernel.
	Run func(*Context) []Diagnostic
}

// Passes returns the registered rule set in a stable order.
func Passes() []*Pass {
	out := []*Pass{
		{Name: "barrierdiverge", Sev: SevError,
			Doc: "barrier() reachable under work-item-divergent control flow",
			Run: runBarrierDiverge},
		{Name: "localrace", Sev: SevError,
			Doc: "__local buffer accessed by different work-items without an intervening barrier",
			Run: runLocalRace},
		{Name: "boundsguard", Sev: SevWarning,
			Doc: "__global buffer indexed by global id without a dominating bound guard",
			Run: runBoundsGuard},
		{Name: "deadstore", Sev: SevWarning,
			Doc: "stored value is never read",
			Run: runDeadStore},
		{Name: "unusedparam", Sev: SevWarning,
			Doc: "function parameter is never used",
			Run: runUnusedParam},
		{Name: "uncoalesced", Sev: SevWarning,
			Doc: "strided or work-item-independent global access in an innermost loop",
			Run: runUncoalesced},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PassNames lists the registered rule names.
func PassNames() []string {
	var names []string
	for _, p := range Passes() {
		names = append(names, p.Name)
	}
	return names
}

// Result is the outcome of analyzing one program.
type Result struct {
	// Diags holds every finding (suppressed ones included), ordered by
	// source position.
	Diags []Diagnostic
}

// Active returns the unsuppressed findings.
func (r *Result) Active() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Errors returns the unsuppressed error-severity findings — the set that
// fails a strict build.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if !d.Suppressed && d.Sev == SevError {
			out = append(out, d)
		}
	}
	return out
}

// Suppressed returns the findings silenced by pragmas.
func (r *Result) Suppressed() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Analyze parses src and runs every registered pass over every kernel,
// applying the source's suppression pragmas. A parse error is returned as
// err; analysis findings never are.
func Analyze(src string) (*Result, error) {
	prog, err := clc.Parse(src)
	if err != nil {
		return nil, err
	}
	return AnalyzeProgram(prog, src), nil
}

// AnalyzeProgram runs every pass over an already-parsed program. src is the
// original source text, used to honour suppression pragmas (pass "" to
// disable suppression handling).
func AnalyzeProgram(prog *clc.Program, src string) *Result {
	var diags []Diagnostic
	for _, fn := range prog.Kernels() {
		info := computeInfo(prog, fn)
		ctx := &Context{Prog: prog, Fn: fn, Info: info}
		for _, p := range Passes() {
			for _, d := range p.Run(ctx) {
				d.Rule = p.Name
				d.Sev = p.Sev
				d.Kernel = fn.Name
				diags = append(diags, d)
			}
		}
	}
	// unusedparam also covers helper functions (a kernel-independent check).
	for _, name := range prog.Order {
		fn := prog.Functions[name]
		if fn.IsKernel {
			continue
		}
		for _, d := range unusedParams(fn) {
			d.Rule = "unusedparam"
			d.Sev = SevWarning
			d.Kernel = fn.Name
			diags = append(diags, d)
		}
	}
	// A standalone pragma covers the next code line and, when that line
	// opens a brace block, the whole block — matched textually: the clc
	// subset has no string or character literals, so brace counting is
	// exact.
	lines := strings.Split(src, "\n")
	names := PassNames()
	sups, audit := pragma.Parse(src, allowMarker,
		func(rule string) bool { return slices.Contains(names, rule) },
		func(line int) (int, int) { return suppressionExtent(lines, line-1) })
	for _, a := range audit {
		diags = append(diags, Diagnostic{
			Rule: "suppression", Sev: SevWarning,
			Tok:     clc.Token{Line: a.Line, Col: a.Col},
			Message: a.Message,
		})
	}
	for i := range diags {
		if diags[i].Rule == "suppression" {
			continue
		}
		if p := pragma.Match(sups, diags[i].Rule, diags[i].Tok.Line); p != nil {
			diags[i].Suppressed = true
			diags[i].SuppressReason = p.Reason
		}
	}
	for _, u := range pragma.Unused(sups) {
		diags = append(diags, Diagnostic{
			Rule: "suppression", Sev: SevWarning,
			Tok:     clc.Token{Line: u.Line, Col: u.Col},
			Message: u.Message,
		})
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Tok.Line != diags[j].Tok.Line {
			return diags[i].Tok.Line < diags[j].Tok.Line
		}
		if diags[i].Tok.Col != diags[j].Tok.Col {
			return diags[i].Tok.Col < diags[j].Tok.Col
		}
		return diags[i].Rule < diags[j].Rule
	})
	return &Result{Diags: diags}
}

// allowMarker is the kernel-source suppression pragma; the grammar and
// its audits are internal/pragma's, shared with repocheck.
const allowMarker = "kernelcheck:allow"

// suppressionExtent returns the covered [from,to] line range (1-based) of a
// standalone pragma at index i.
func suppressionExtent(lines []string, i int) (int, int) {
	j := i + 1
	for j < len(lines) {
		code := stripLineComment(lines[j])
		if strings.TrimSpace(code) != "" {
			break
		}
		j++
	}
	if j >= len(lines) {
		return i + 2, i + 2
	}
	from := j + 1
	depth := braceDelta(stripLineComment(lines[j]))
	if depth <= 0 {
		return from, from
	}
	for k := j + 1; k < len(lines); k++ {
		depth += braceDelta(stripLineComment(lines[k]))
		if depth <= 0 {
			return from, k + 1
		}
	}
	return from, len(lines)
}

func stripLineComment(line string) string {
	if idx := strings.Index(line, "//"); idx >= 0 {
		return line[:idx]
	}
	return line
}

func braceDelta(code string) int {
	d := 0
	for i := 0; i < len(code); i++ {
		switch code[i] {
		case '{':
			d++
		case '}':
			d--
		}
	}
	return d
}
