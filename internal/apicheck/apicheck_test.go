package apicheck

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the API surface golden file")

// surfacePackages are the repo's public-facing packages: the ones jobs,
// clients, and the commands program against. Adding a package here grows
// the golden file (run with -update).
var surfacePackages = []string{
	"internal/sim",
	"internal/core",
	"internal/serve",
	"internal/lint",
	"internal/gpusim",
	"internal/cl",
}

// TestAPISurfaceGolden locks the exported API of the public-facing packages.
// Any change to an exported symbol — new, removed, or reshaped — must show
// up as a diff of testdata/api_surface.golden.txt in the same commit.
// Regenerate with:
//
//	go test ./internal/apicheck -update
func TestAPISurfaceGolden(t *testing.T) {
	root := repoRoot(t)
	var buf bytes.Buffer
	for _, pkg := range surfacePackages {
		s, err := Surface(filepath.Join(root, pkg))
		if err != nil {
			t.Fatalf("%s: %v", pkg, err)
		}
		fmt.Fprintf(&buf, "== %s ==\n%s\n", pkg, s)
	}
	golden := filepath.Join("testdata", "api_surface.golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exported API surface drifted from the golden file.\n%s\nIf the change is intentional, regenerate with: go test ./internal/apicheck -update",
			diffHint(string(want), buf.String()))
	}
}

// diffHint shows the first few differing lines of the two documents —
// enough to locate the drift without a diff tool.
func diffHint(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  golden: %q\n  got:    %q\n", i+1, wl, gl)
			shown++
			if shown >= 8 {
				b.WriteString("  ... (more differences elided)\n")
				break
			}
		}
	}
	return b.String()
}

// repoRoot walks up from the package directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

func TestSurfaceIsSortedAndExportedOnly(t *testing.T) {
	root := repoRoot(t)
	s, err := Surface(filepath.Join(root, "internal/serve"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatalf("surface not sorted at line %d: %q < %q", i, lines[i], lines[i-1])
		}
	}
	for _, line := range lines {
		if strings.Contains(line, "engineSlot.") || strings.HasPrefix(line, "func newPool") {
			t.Fatalf("unexported symbol leaked into the surface: %q", line)
		}
	}
	// Spot-check the symbols the service contract depends on.
	for _, want := range []string{
		"var ErrQueueFull",
		"var ErrDraining",
		"const JobSchemaVersion",
		"const SnapshotSchemaVersion",
	} {
		if !strings.Contains(s, want+"\n") {
			t.Errorf("surface missing %q", want)
		}
	}
}
