package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/surge"
)

func TestRun(t *testing.T) {
	audit := []string{"-engine", "additive", "-hours", "1", "-seed", "42"}
	names := strings.Join(surge.EngineNames(), ", ")
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // regexp the output must match
		stderr string // substring
	}{
		{"unknown engine", []string{"-engine", "nope"}, 2, `^$`, `"nope" (want one of ` + names + ")\n"},
		{"unknown flag", []string{"-no-such-flag"}, 2, `^$`, "flag provided but not defined"},
		// Out-of-range values used to run something else: the calibrated
		// city for a fleet scale that is not positive, a whole day for
		// negative hours.
		{"negative fleet scale", append(audit, "-fleet-scale", "-2"), 2, `^$`, "-fleet-scale must be positive"},
		{"zero fleet scale", append(audit, "-fleet-scale", "0"), 2, `^$`, "-fleet-scale must be positive"},
		{"NaN fleet scale", append(audit, "-fleet-scale", "NaN"), 2, `^$`, "-fleet-scale must be positive"},
		{"negative hours", append(audit, "-hours", "-1"), 2, `^$`, "-hours must not be negative"},
		{"days flag is gone", append(audit, "-days", "1"), 2, `^$`, "flag provided but not defined: -days"},
		{"negative openstreetcab", append(audit, "-openstreetcab", "-1"), 2, `^$`, "-openstreetcab must not be negative"},
		{"negative sim workers", []string{"-sim-workers", "-1", "-openstreetcab", "1"}, 2, `^$`, "workers -1"},
		{"audit", audit, 0, `(?m)^engine-report: engine=additive .* offgrid-frac=1\.000 `, ""},
		{"out in missing directory", append(audit, "-out", filepath.Join(t.TempDir(), "gone", "report.md")), 1, `^$`, "no such file"},
		// A disk that fills while the report is written must not pass for
		// a finished report.
		{"out on a full disk", append(audit, "-out", "/dev/full"), 1, `^$`, "report truncated"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if out := c.args[len(c.args)-1]; out == "/dev/full" {
				if _, err := os.Stat(out); err != nil {
					t.Skip("no /dev/full on this platform")
				}
			}
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, c.code, &stderr)
			}
			if !regexp.MustCompile(c.stdout).Match(stdout.Bytes()) {
				t.Errorf("stdout %q does not match %s", &stdout, c.stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, c.stderr)
			}
		})
	}
}

// TestRunFlags pins the command line: one horizon flag, -hours.
func TestRunFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{"compare-engines", "engine", "fleet-scale", "hours", "openstreetcab",
		"out", "preamble", "seed", "sim-workers"}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
}
