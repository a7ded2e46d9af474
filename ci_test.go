package scuba_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// TestBenchedBenchmarksAreGated: the "Bench PR head" step runs the benchmark
// families CI pays for on every PR, and the regression gate names the
// families it fails a PR on; the two lists live in different steps and once
// disagreed (BenchmarkShutdownRestore ran six times a PR and gated nothing).
// Every family the head step names must be covered by a --filter prefix of a
// step that gates bench-base.txt against bench-head.txt, and the "Bench
// merge-base" step must run the same families: one the base lacks reads as
// "no baseline", which the gate passes, so it would never be gated.
func TestBenchedBenchmarksAreGated(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var benched, filters []string
	var base string
	for _, step := range strings.Split(string(data), "\n      - ")[1:] {
		// A step may bench in several commands (the restart families at a
		// fixed count): its pattern is theirs joined, in order.
		var patterns []string
		for rest := step; ; {
			var ok bool
			if _, rest, ok = strings.Cut(rest, "-bench '"); !ok {
				break
			}
			p, _, _ := strings.Cut(rest, "'")
			patterns = append(patterns, p)
		}
		pattern := strings.Join(patterns, "|")
		if strings.HasPrefix(step, "name: Bench PR head\n") {
			benched = strings.Split(pattern, "|")
		}
		if strings.HasPrefix(step, "name: Bench merge-base\n") {
			base = pattern
		}
		if strings.Contains(step, "benchgate.py bench-base.txt bench-head.txt") {
			fields := strings.Fields(step)
			for i, f := range fields[:len(fields)-1] {
				if f == "--filter" {
					filters = append(filters, fields[i+1])
				}
			}
		}
	}
	if len(benched) < 2 || len(filters) == 0 || base == "" {
		t.Fatalf("could not read the workflow: benched %q, base %q, gate filters %q", benched, base, filters)
	}
	if head := strings.Join(benched, "|"); base != head {
		t.Errorf("the merge-base bench step runs %q, the head step %q: both must bench the same families", base, head)
	}
	for _, name := range benched {
		gated := false
		for _, f := range filters {
			gated = gated || strings.HasPrefix(name, f)
		}
		if !strings.HasPrefix(name, "Benchmark") || !gated {
			t.Errorf("the head bench step runs %q but no gate --filter covers it (filters %q)", name, filters)
		}
	}
}

// TestWorkflowPatternsMatchSomething: a step that runs `go test -run 'TestA|TestB'`
// keeps passing when TestB is renamed — it just stops running it. Every
// alternative of every -run / -bench pattern in the workflows must match at
// least one Test / Fuzz (for -run) or Benchmark (for -bench) function in the
// packages the command names.
func TestWorkflowPatternsMatchSomething(t *testing.T) {
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	runs, benches := regexp.MustCompile("^(Test|Fuzz)"), regexp.MustCompile("^Benchmark")
	declared := func(dir string) (names []string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range funcDecl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
		return names
	}
	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files (%v)", err)
	}
	indent := func(line string) int { return len(line) - len(strings.TrimLeft(line, " ")) }
	checked := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// One command a line: shell continuations joined, and a folded scalar
		// (run: >) with the lines indented under it.
		var lines []string
		fold := -1
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			if fold >= 0 && indent(line) > fold {
				lines[len(lines)-1] += " " + strings.TrimSpace(line)
				continue
			}
			fold = -1
			if strings.HasSuffix(line, "run: >") {
				fold = indent(line)
			}
			lines = append(lines, line)
		}
		for _, line := range lines {
			_, cmd, ok := strings.Cut(line, "go test ")
			if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			cmd, _, _ = strings.Cut(cmd, " | ")
			fields := strings.Fields(cmd)
			var names []string
			for _, arg := range fields {
				if arg == "." || strings.HasPrefix(arg, "./") && !strings.HasSuffix(arg, "...") {
					names = append(names, declared(arg)...)
				}
			}
			for i, arg := range fields[:len(fields)-1] {
				kind := map[string]*regexp.Regexp{"-run": runs, "-bench": benches}[arg]
				pattern := strings.Trim(fields[i+1], `'"`)
				if kind == nil || pattern == "^$" {
					continue
				}
				for _, alt := range strings.Split(pattern, "|") {
					top, _, _ := strings.Cut(alt, "/")
					re, err := regexp.Compile(top)
					if err != nil {
						t.Errorf("%s: %s %q: %v", f, arg, alt, err)
						continue
					}
					checked++
					matched := false
					for _, name := range names {
						matched = matched || (kind.MatchString(name) && re.MatchString(name))
					}
					if !matched {
						t.Errorf("%s: `go test %s`: %s %q matches none of the %d functions declared there", f, cmd, arg, alt, len(names))
					}
				}
			}
		}
	}
	if checked < 20 {
		t.Errorf("read only %d patterns out of the workflows: the parse is broken", checked)
	}
	t.Logf("%d patterns", checked)
}

// TestMutantsStillApply: each ci/mutants/*.patch is a deliberate bug that a
// named test must catch. Its header names the mutant, the package and the
// test ("Mutant:", "Package:", "Test:" lines ahead of the diff). A mutant
// that no longer applies checks nothing, so every patch must still apply to
// this tree, and the test it names must still be declared in its package;
// code that moves takes its mutants along.
func TestMutantsStillApply(t *testing.T) {
	git, err := exec.LookPath("git")
	if err != nil {
		t.Skip("no git to apply the patches with")
	}
	patches, err := filepath.Glob("ci/mutants/*.patch")
	if err != nil || len(patches) == 0 {
		t.Fatalf("no mutants under ci/mutants (%v)", err)
	}
	for _, p := range patches {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(string(data), "\ndiff --git ")
		field := func(key string) string {
			for _, line := range strings.Split(header, "\n") {
				if v, ok := strings.CutPrefix(line, key+": "); ok {
					return strings.TrimSpace(v)
				}
			}
			return ""
		}
		pkg, test := field("Package"), field("Test")
		if field("Mutant") == "" || pkg == "" || test == "" {
			t.Errorf("%s: the header must name the Mutant, its Package and the Test that catches it", p)
			continue
		}
		decl := regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(test) + `\(`)
		tests, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		declared := false
		for _, f := range tests {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			declared = declared || decl.Match(src)
		}
		if !declared {
			t.Errorf("%s: %s declares no %s", p, pkg, test)
		}
		if out, err := exec.Command(git, "apply", "--check", p).CombinedOutput(); err != nil {
			t.Errorf("%s no longer applies: %v\n%s", p, err, out)
		}
	}
}
