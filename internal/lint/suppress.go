package lint

import (
	"go/ast"

	"repro/internal/pragma"
)

// allowMarker is the in-source suppression pragma (grammar and audits in
// internal/pragma, shared with kernelcheck): a justified
//
//	// repocheck:allow rule1,rule2 -- reason
//
// at the end of a code line covers that line; on its own line it covers
// the next statement or declaration (and everything inside it, when that
// statement opens a block). Pragmas are audited: a missing justification,
// an unknown rule name, or a pragma matching no finding is itself a
// "suppression" finding.
const allowMarker = "repocheck:allow"

// parseSuppressions scans one package's raw sources for allow pragmas and
// returns them keyed by repo-relative file (matching Diagnostic.File),
// with the pragma audit findings. known is the registered rule-name set.
func parseSuppressions(l *Loader, pkg *Package, known map[string]bool) (map[string][]*pragma.Pragma, []Diagnostic) {
	sups := make(map[string][]*pragma.Pragma)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		filename := l.Fset.Position(f.Pos()).Filename
		src, ok := pkg.Src[filename]
		if !ok {
			continue
		}
		rel := l.relPath(filename)
		extents := nodeExtents(l, f)
		// A standalone pragma covers the next statement or declaration,
		// block and all — computed from the AST, so Go string literals
		// containing braces cannot confuse it.
		ps, audit := pragma.Parse(string(src), allowMarker,
			func(rule string) bool { return known[rule] },
			func(line int) (int, int) { return standaloneExtent(extents, line) })
		sups[rel] = ps
		for _, a := range audit {
			diags = append(diags, Diagnostic{
				Rule: "suppression", Sev: SevWarning,
				File: rel, Line: a.Line, Col: a.Col, Unit: pkg.Path,
				Message: a.Message,
			})
		}
	}
	return sups, diags
}

// nodeExtents collects the line span of every statement, declaration, spec
// and struct field in the file, keyed by start line (widest span wins).
func nodeExtents(l *Loader, f *ast.File) map[int]int {
	ext := make(map[int]int)
	record := func(n ast.Node) {
		from := l.Fset.Position(n.Pos()).Line
		to := l.Fset.Position(n.End()).Line
		if to > ext[from] {
			ext[from] = to
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case ast.Decl, ast.Stmt, ast.Spec, *ast.Field:
			record(n)
		}
		return true
	})
	return ext
}

// standaloneExtent returns the [from, to] line coverage of a standalone
// pragma at pragmaLine: the nearest statement starting below it. A pragma
// with nothing below it covers only the next line (and so matches nothing
// — the unused-suppression audit reports it).
func standaloneExtent(extents map[int]int, pragmaLine int) (int, int) {
	best := 0
	for from := range extents {
		if from > pragmaLine && (best == 0 || from < best) {
			best = from
		}
	}
	if best == 0 {
		return pragmaLine + 1, pragmaLine + 1
	}
	return best, extents[best]
}

// applySuppressions marks findings covered by pragmas and reports the
// pragmas left unused. Findings from the "suppression" rule itself are
// never suppressible — an audit that could silence itself would not audit
// anything.
func applySuppressions(diags []Diagnostic, sups map[string][]*pragma.Pragma) []Diagnostic {
	for i := range diags {
		if diags[i].Rule == "suppression" {
			continue
		}
		if p := pragma.Match(sups[diags[i].File], diags[i].Rule, diags[i].Line); p != nil {
			diags[i].Suppressed = true
			diags[i].SuppressReason = p.Reason
		}
	}
	// Map order is irrelevant: Check sorts the findings by position.
	for file, ps := range sups {
		for _, u := range pragma.Unused(ps) {
			diags = append(diags, Diagnostic{
				Rule: "suppression", Sev: SevWarning,
				File: file, Line: u.Line, Col: u.Col,
				Message: u.Message,
			})
		}
	}
	return diags
}
