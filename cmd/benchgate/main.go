// Command benchgate compares a `go test -bench` run against the committed
// baseline in BENCH_step.json and fails CI when the fleet-scale tick or the
// tsdb store regresses. It reads the benchmark output on stdin, of one
// package or several:
//
//	{ go test -run '^$' -bench 'BenchmarkStep|BenchmarkSnapshotEpoch' \
//	    -benchtime 5x -benchmem .
//	  go test -run '^$' -bench 'BenchmarkSeal$|BenchmarkRangeQuery|BenchmarkFullScan' \
//	    -benchtime 5x -benchmem ./internal/tsdb; } | go run ./cmd/benchgate
//
// Two gates, applied to every benchmark in the baseline's "gate" section:
//
//   - allocs/op may not regress anywhere. Allocation counts in a
//     deterministic simulation are machine-independent, so this gate runs
//     on every host. The comparison allows 1% + 8 allocs of slack: worker
//     goroutine wakeups and map growth timing make the count almost — but
//     not exactly — reproducible run to run.
//   - B/op may not regress anywhere either, with 1% + 1 KiB of slack (six
//     repeated sweeps differ by at most 64 B/op). Bytes do not track
//     allocs: the history-chunk snapshot tripled BenchmarkSnapshotEpoch's
//     allocs/op while cutting its B/op by 70%, and the reverse trade would
//     sail through a count-only gate.
//
// ns/op is printed against the baseline but not gated: on the shared host
// the baseline was recorded on it drifts ~20% run to run, so a wall-clock
// gate was red for unchanged code, and on any other CPU it says nothing.
// Timing claims go through the paired runs of bench/ instead.
//
// A gate benchmark missing from the input is an error — the sweep cannot
// silently shrink.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
)

type metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

type baseline struct {
	Gate struct {
		Benchtime  string             `json:"benchtime"`
		Benchmarks map[string]metrics `json:"benchmarks"`
	} `json:"gate"`
}

// benchLine matches `go test -bench -benchmem` result rows, with or
// without the -N GOMAXPROCS suffix benchmark names carry on SMP hosts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseBench reads the result rows of `go test -bench` output by
// benchmark name.
func parseBench(r io.Reader) (map[string]metrics, error) {
	got := map[string]metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		// The pattern admits only digits (and dots in ns/op); a row without
		// -benchmem leaves the byte and alloc groups empty, read as 0.
		ns, _ := strconv.ParseFloat(m[2], 64)
		b, _ := strconv.ParseInt(m[3], 10, 64)
		allocs, _ := strconv.ParseInt(m[4], 10, 64)
		got[m[1]] = metrics{NsOp: ns, BOp: b, AllocsOp: allocs}
	}
	return got, sc.Err()
}

// Slack on top of 1% for the two gates.
const (
	allocSlack = 8
	byteSlack  = 1024
)

// check applies the gates to one benchmark and returns a line per
// violated gate.
func check(name string, have, want metrics) (fails []string) {
	if limit := want.AllocsOp + want.AllocsOp/100 + allocSlack; have.AllocsOp > limit {
		fails = append(fails, fmt.Sprintf("FAIL %s: %d allocs/op, baseline %d (cap %d)",
			name, have.AllocsOp, want.AllocsOp, limit))
	}
	if limit := want.BOp + want.BOp/100 + byteSlack; have.BOp > limit {
		fails = append(fails, fmt.Sprintf("FAIL %s: %d B/op, baseline %d (cap %d)",
			name, have.BOp, want.BOp, limit))
	}
	return fails
}

func main() {
	baseFile := flag.String("baseline", "BENCH_step.json", "committed baseline file")
	flag.Parse()

	raw, err := os.ReadFile(*baseFile)
	if err != nil {
		fatalf("benchgate: %v", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatalf("benchgate: %s: %v", *baseFile, err)
	}
	if len(base.Gate.Benchmarks) == 0 {
		fatalf("benchgate: %s has no gate benchmarks", *baseFile)
	}

	got, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("benchgate: reading stdin: %v", err)
	}

	failed := false
	for name, want := range base.Gate.Benchmarks {
		have, ok := got[name]
		if !ok {
			fmt.Printf("FAIL %s: missing from benchmark output\n", name)
			failed = true
			continue
		}
		status := "ok  "
		for _, f := range check(name, have, want) {
			status, failed = "FAIL", true
			fmt.Println(f)
		}
		fmt.Printf("%s %-40s ns/op %12.0f (%.2fx base)   B/op %10d (base %d)   allocs/op %6d (base %d)\n",
			status, name, have.NsOp, have.NsOp/want.NsOp, have.BOp, want.BOp, have.AllocsOp, want.AllocsOp)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchgate: all gates passed")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
