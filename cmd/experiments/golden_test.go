package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

// TestGoldenOutputs holds reports to the SHA-256 digests in
// testdata/golden.txt. A digest that moves means the command prints
// something else, so a refactor or a speed-up leaves every one as it is;
// run with -update to record an intended output change.
//
// The digests are amd64's: elsewhere Go may fuse a multiply and an add
// into one instruction, which rounds differently.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	runs := map[string][]string{
		"engine-additive":    {"-engine", "additive", "-hours", "1", "-seed", "42"},
		"engine-mult2015":    {"-engine", "mult2015", "-hours", "1", "-seed", "42"},
		"engine-withholding": {"-engine", "withholding", "-hours", "1", "-seed", "42"},
		"openstreetcab":      {"-openstreetcab", "1", "-seed", "42"},
	}
	got := map[string][]byte{}
	for name, args := range runs {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", name, code, &stderr)
		}
		got[name] = stdout.Bytes()
	}
	checkGolden(t, got)
}

// checkGolden compares the SHA-256 of each output with its "name digest"
// line in testdata/golden.txt, or rewrites the file under -update.
func checkGolden(t *testing.T, outputs map[string][]byte) {
	t.Helper()
	names := make([]string, 0, len(outputs))
	for name := range outputs {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256(outputs[name]))
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("the output changed:\n got  %s want %s", strings.ReplaceAll(got, "\n", "\n      "), strings.ReplaceAll(string(want), "\n", "\n      "))
	}
}
