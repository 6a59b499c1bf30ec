package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// child runs one workload in a process of its own (peak RSS is per
// process), passes its stderr through, and returns its result line.
func child(o options, workload string, seed int64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	fmt.Printf("%s\n", lines[len(lines)-1])
	return res, nil
}

// runAll runs the four workloads in their fixed order, timed then traced
// (the smoke run: timed only), one result line each on stdout.
func runAll(o options) int {
	code := 0
	for _, wl := range workloads {
		for trace := 0; trace <= 1 && !(o.smoke && trace == 1); trace++ {
			res, err := child(o, wl.name, o.seed, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
			} else if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// runAA is the benchmark's own acceptance check: two sets of n timed runs
// of the same code, interleaved A1 B1 A2 B2 ..., run i of either set with
// seed o.seed+i. For each workload and end-to-end metric it prints both
// medians, both quartile spreads as a share of the median, and how much
// worse B's median is than A's, and fails if a spread (setup_s excepted) or
// a difference exceeds the metric's bound. A_i and B_i share a seed, so
// their allocation must agree to three digits.
func runAA(o options, n int) int {
	code := 0
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := child(o, wl.name, o.seed+int64(i), 0)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "%s run %c%d failed: %v\n", wl.name, 'A'+s, i+1, err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
			a, b := sets[0]["alloc_kb_per_op"][i], sets[1]["alloc_kb_per_op"][i]
			if math.Abs(a-b) > 0.0005*a {
				fmt.Fprintf(os.Stderr, "%s seed %d: alloc_kb_per_op %.4f vs %.4f differ in three digits\n", wl.name, o.seed+int64(i), a, b)
				code = 1
			}
		}
		fmt.Fprintf(os.Stderr, "== A/A %s, %d runs a set\n  %-16s %12s %8s %12s %8s %8s %6s\n",
			wl.name, n, "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			medA, medB := median(a), median(b)
			spreadA, spreadB := math.NaN(), math.NaN()
			if n >= 2 {
				q1, q3 := quartiles(a)
				spreadA = (q3 - q1) / medA
				q1, q3 = quartiles(b)
				spreadB = (q3 - q1) / medB
			}
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound) {
				verdict, code = "OUT OF BOUND", 1
			}
			fmt.Fprintf(os.Stderr, "  %-16s %12.4f %7.2f%% %12.4f %7.2f%% %+7.2f%% %5.0f%% %s\n",
				m.Name, medA, 100*spreadA, medB, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
