// Command benchgate compares a `go test -bench` run against the committed
// baseline in BENCH_step.json and fails CI when the fleet-scale tick
// regresses. It reads the benchmark output on stdin:
//
//	go test -run '^$' -bench 'BenchmarkStep|BenchmarkSnapshotDelta' \
//	    -benchtime 5x -benchmem . | go run ./cmd/benchgate
//
// Three gates, applied to every benchmark in the baseline's "gate" section:
//
//   - allocs/op may not regress anywhere. Allocation counts in a
//     deterministic simulation are machine-independent, so this gate runs
//     on every host. The comparison allows 1% + 8 allocs of slack: worker
//     goroutine wakeups and map growth timing make the count almost — but
//     not exactly — reproducible run to run.
//   - B/op may not regress anywhere either, with 1% + 1 KiB of slack (six
//     repeated sweeps differ by at most 64 B/op). Bytes do not track
//     allocs: the history-chunk snapshot tripled BenchmarkSnapshotDelta's
//     allocs/op while cutting its B/op by 70%, and the reverse trade would
//     sail through a count-only gate.
//   - ns/op may not regress by more than the baseline's tolerance
//     (default 15%), gated only when the host's `cpu:` line matches the
//     baseline host exactly. Wall-clock on a different CPU says nothing
//     about a regression, so foreign hosts only report.
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
	"strings"
)

type metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

type baseline struct {
	Host struct {
		CPU string `json:"cpu"`
	} `json:"host"`
	Gate struct {
		Benchtime   string             `json:"benchtime"`
		NsTolerance float64            `json:"ns_tolerance"`
		Benchmarks  map[string]metrics `json:"benchmarks"`
	} `json:"gate"`
}

// benchLine matches `go test -bench -benchmem` result rows, with or
// without the -N GOMAXPROCS suffix benchmark names carry on SMP hosts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseBench reads `go test -bench` output: the result rows by benchmark
// name, and the host's `cpu:` line.
func parseBench(r io.Reader) (got map[string]metrics, hostCPU string, err error) {
	got = map[string]metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			hostCPU = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
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
	return got, hostCPU, sc.Err()
}

// Slack on top of 1% for the two machine-independent gates.
const (
	allocSlack = 8
	byteSlack  = 1024
)

// check applies the three gates to one benchmark and returns a line per
// violated gate; gateNs says whether the host is the baseline's.
func check(name string, have, want metrics, gateNs bool, tol float64) (fails []string) {
	if limit := want.AllocsOp + want.AllocsOp/100 + allocSlack; have.AllocsOp > limit {
		fails = append(fails, fmt.Sprintf("FAIL %s: %d allocs/op, baseline %d (cap %d)",
			name, have.AllocsOp, want.AllocsOp, limit))
	}
	if limit := want.BOp + want.BOp/100 + byteSlack; have.BOp > limit {
		fails = append(fails, fmt.Sprintf("FAIL %s: %d B/op, baseline %d (cap %d)",
			name, have.BOp, want.BOp, limit))
	}
	if ratio := have.NsOp / want.NsOp; gateNs && ratio > 1+tol {
		fails = append(fails, fmt.Sprintf("FAIL %s: %.0f ns/op is %.2fx baseline %.0f (tolerance %.0f%%)",
			name, have.NsOp, ratio, want.NsOp, tol*100))
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
	tol := base.Gate.NsTolerance
	if tol <= 0 {
		tol = 0.15
	}

	got, hostCPU, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("benchgate: reading stdin: %v", err)
	}
	sameCPU := hostCPU != "" && hostCPU == base.Host.CPU
	if !sameCPU {
		fmt.Printf("benchgate: host cpu %q != baseline %q; ns/op reported but not gated\n",
			hostCPU, base.Host.CPU)
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
		for _, f := range check(name, have, want, sameCPU, tol) {
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
