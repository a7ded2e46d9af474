package scuba_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkflowNamesParse: a workflow file that does not parse runs no job at
// all, so nothing in CI can report it. The mistake that is easy to make in a
// step or job name — an unquoted ": " or " #", which YAML reads as a nested
// mapping or a comment — is checked here, in tier 1.
func TestWorkflowNamesParse(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, name, ok := strings.Cut(line, "name: ")
			if !ok || strings.TrimLeft(line, " -") != "name: "+name || strings.ContainsAny(name[:1], `"'`) {
				continue
			}
			if strings.Contains(name, ": ") || strings.Contains(name, " #") {
				t.Errorf("%s:%d: unquoted name %q does not parse as a YAML scalar", f, i+1, name)
			}
		}
	}
}

// TestWorkflowsFuzzThroughTheDriver: the workflows once named 14 fuzz targets
// in 14 copied steps and the nightly one had silently fallen to 8 of them.
// ci/fuzz.sh discovers the targets instead; a literal -fuzz=Fuzz… in a
// workflow is the hand-kept list growing back.
func TestWorkflowsFuzzThroughTheDriver(t *testing.T) {
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files (%v)", err)
	}
	drivers := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "-fuzz=Fuzz") {
				t.Errorf("%s:%d: names a fuzz target; run ci/fuzz.sh <fuzztime> instead", f, i+1)
			}
			if strings.Contains(line, "run: bash ci/fuzz.sh ") {
				drivers++
			}
		}
	}
	if drivers < 2 {
		t.Errorf("%d workflow steps run ci/fuzz.sh, want the push and the nightly one", drivers)
	}
}
