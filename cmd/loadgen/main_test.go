package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/loadgen"
)

func TestRun(t *testing.T) {
	ts := httptest.NewServer(api.NewServer(api.Scenario{City: "manhattan", Seed: 11}.Build()))
	defer ts.Close()
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring
	}{
		{"unknown city", []string{"-cities", "atlantis"}, 2, "atlantis"},
		{"no city", []string{"-cities", " , "}, 2, "names no city"},
		{"unknown gateway city", []string{"-cities", "sf,atlantis"}, 2, "atlantis"},
		// 1:-1:0 sums to zero: it used to panic every client goroutine.
		{"negative weight", []string{"-addr", ts.URL, "-ping-weight", "1", "-price-weight", "-1", "-time-weight", "0"}, 2, "-price-weight"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"closed port", []string{"-addr", "http://127.0.0.1:1", "-duration", "50ms", "-json", "-fail-on-errors"}, 1, "register"},
		{"json run", []string{"-addr", ts.URL, "-clients", "2", "-duration", "200ms", "-json", "-fail-on-errors"}, 0, "loadgen: 2 clients -> " + ts.URL},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, c.code, &stderr)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, c.stderr)
			}
			if c.code != 0 {
				if stdout.Len() != 0 {
					t.Errorf("stdout %q, want none", &stdout)
				}
				return
			}
			// -json keeps stdout one parseable report; the banner went to stderr.
			var rep loadgen.Report
			if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
				t.Fatalf("stdout is not a JSON report: %v\n%s", err, &stdout)
			}
			if rep.Requests == 0 || rep.Errors != 0 || rep.Endpoints["/pingClient"].Requests == 0 {
				t.Errorf("report %+v, want requests on /pingClient and no errors", rep)
			}
		})
	}
}

// TestRunFlags pins the command line: -cities is the only location flag.
func TestRunFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(stderr.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{"addr", "cities", "clients", "duration", "fail-on-errors", "json",
		"no-retry", "ping-weight", "price-weight", "rate", "time-weight"}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
}
