package scuba_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every example end to end (real processes for the
// upgrade example) and checks the output markers that prove the headline
// behaviour happened — examples are documentation and must not rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping example subprocesses")
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "quickstart",
			args: []string{"run", "./examples/quickstart", "-rows", "20000"},
			want: []string{
				"recovered via memory",
				"top services after restart",
			},
		},
		{
			name: "upgrade",
			args: []string{"run", "./examples/upgrade", "-rows", "20000"},
			want: []string{
				"clean shutdown",
				"recovered via memory",
				"query sees 20000 rows",
			},
		},
		{
			name: "upgrade-crash",
			args: []string{"run", "./examples/upgrade", "-rows", "20000", "-crash"},
			want: []string{
				"simulating a crash",
				"recovered via disk",
				"query sees 20000 rows",
			},
		},
		{
			name: "rollover",
			args: []string{"run", "./examples/rollover", "-machines", "2", "-leaves", "4", "-rows", "20000"},
			want: []string{
				"rollover via shared memory",
				"recoveries: 8 memory, 0 quarantined",
				"rows visible: 20000",
				"weekly full availability",
			},
		},
		{
			name: "monitoring",
			args: []string{"run", "./examples/monitoring"},
			want: []string{
				"restarted via memory",
				"ALERT: android/timeout",
				"severe errors per 10-minute bucket",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("example failed: %v\n%s", err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q\n%s", want, out)
				}
			}
		})
	}
}
