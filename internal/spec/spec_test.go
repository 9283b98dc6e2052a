package spec

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// testSupport are the module's test-support packages: only _test.go
// files may import them.
var testSupport = []string{"ppcsim/internal/spec", "ppcsim/internal/trace/tracetest"}

// TestTestOnlyPackagesStayTestOnly lists the dependencies of the
// module's packages, without their tests, and fails if any package but
// the test-support ones themselves depends on one of them. It also holds
// internal/spec to its own import rule: nothing of the module above
// internal/layout and internal/future, so that the in-package tests of
// the packages it specifies can use it.
func TestTestOnlyPackagesStayTestOnly(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := exec.Command(goBin, "list", "-deps", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "ppcsim/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, deps, _ := strings.Cut(line, " ")
		if pkg != "ppcsim" && !strings.HasPrefix(pkg, "ppcsim/") {
			continue // the standard library
		}
		seen[pkg] = true
		var own []string
		for _, d := range strings.Fields(deps) {
			if strings.HasPrefix(d, "ppcsim/") {
				own = append(own, d)
			}
		}
		if pkg == testSupport[0] {
			if !slices.Equal(own, []string{"ppcsim/internal/future", "ppcsim/internal/layout"}) {
				t.Errorf("%s depends on %v; want only internal/future and internal/layout", pkg, own)
			}
			continue
		}
		for _, ts := range testSupport {
			if pkg != ts && slices.Contains(own, ts) {
				t.Errorf("%s depends on the test-support package %s", pkg, ts)
			}
		}
	}
	for _, pkg := range append([]string{"ppcsim", "ppcsim/internal/engine"}, testSupport...) {
		if !seen[pkg] {
			t.Errorf("go list did not report %s", pkg)
		}
	}
}
