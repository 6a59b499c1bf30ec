package main

import (
	"bytes"
	"context"
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

// TestGoldenOutputs holds an hour's campaign store and its analysis to the
// SHA-256 digests in testdata/golden.txt: the segment bytes a recording
// writes and what analyze -in prints from them. A digest that moves means
// an output changed, so a refactor or a speed-up leaves every one as it
// is; run with -update to record an intended output change.
//
// The digests are amd64's: elsewhere Go may fuse a multiply and an add
// into one instruction, which rounds differently.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	store := filepath.Join(t.TempDir(), "c.tsdb")
	recordCampaign(t, "manhattan", 7, 3600, map[string]int64{store: 0})
	got := map[string][]byte{}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-in", store}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze -in: exit %d (stderr: %s)", code, &stderr)
	}
	got["analyze"] = stdout.Bytes()
	segs, err := filepath.Glob(filepath.Join(store, "seg", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in the store (%v)", err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got["segment-"+filepath.Base(seg)] = data
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
