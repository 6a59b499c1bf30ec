// Command bench is the repository's end-to-end benchmark: four fixed-work,
// seeded, closed-loop workloads held inside the 15:00-20:00 rush plateau,
// one process per workload, with a separate traced run that attributes each
// workload's time to the repository's layers from the outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the bounded metrics, the same three on every workload, from
// the timed run with tracing off. No wall-clock metric but setup_s is among
// them: on the reference host same-code runs spread throughput, latency and
// CPU time by more than the largest bound a metric may have (README.md,
// "Noise"), so those are layer metrics of the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the traced run's metrics of single layers. Every traced run
// prints all of them; one that a workload does not exercise reads 0.
var perLayer = []metricDef{
	// every workload: the untraced passes
	{Name: "work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "alt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	// every workload: the traced pass
	{Name: "trace.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.alt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.unexplained_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	// serve_gateway
	{Name: "api.remote_self_ms", Unit: "ms", Better: "lower"},
	{Name: "net.client_hop_ms", Unit: "ms", Better: "lower"},
	{Name: "gate.self_ms", Unit: "ms", Better: "lower"},
	{Name: "net.shard_hop_ms", Unit: "ms", Better: "lower"},
	{Name: "api.server_self_ms", Unit: "ms", Better: "lower"},
	{Name: "api.service_ms", Unit: "ms", Better: "lower"},
	{Name: "api.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "api.response_bytes", Unit: "B", Better: "lower"},
	{Name: "api.login_ms", Unit: "ms", Better: "lower"},
	{Name: "gate.pick_us", Unit: "us", Better: "lower"},
	{Name: "gate.reroutes", Unit: "count", Better: "lower"},
	{Name: "gate.sheds", Unit: "count", Better: "lower"},
	{Name: "check.wrong_city", Unit: "count", Better: "lower"},
	// serve_gateway and campaign_store
	{Name: "api.step_ms", Unit: "ms", Better: "lower"},
	// tick_100k and tick_road
	{Name: "sim.step_ms", Unit: "ms", Better: "lower"},
	{Name: "surge.step_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.snapshot_alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "sim.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.move_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.dispatch_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.stats_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.worker_speedup", Unit: "x", Better: "higher"},
	{Name: "sim.ping_us", Unit: "us", Better: "lower"},
	{Name: "road.route_us", Unit: "us", Better: "lower"},
	{Name: "road.max_factor", Unit: "x", Better: "lower"},
	{Name: "check.world_digest", Unit: "count", Better: "lower"},
	// campaign_store
	{Name: "client.round_ms", Unit: "ms", Better: "lower"},
	{Name: "api.ping_us", Unit: "us", Better: "lower"},
	{Name: "record.observe_us", Unit: "us", Better: "lower"},
	{Name: "record.end_round_ms", Unit: "ms", Better: "lower"},
	{Name: "record.seal_rounds", Unit: "count", Better: "lower"},
	{Name: "tsdb.append_us_per_row", Unit: "us", Better: "lower"},
	{Name: "tsdb.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "tsdb.bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "tsdb.wal_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "tsdb.query_ms", Unit: "ms", Better: "lower"},
	{Name: "record.replay_self_ms", Unit: "ms", Better: "lower"},
	{Name: "measure.observe_us", Unit: "us", Better: "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds: the run length the op
// counts were calibrated for.
const runSeconds = 20

// metricValue and result are the line a run prints last on stdout.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all four, a child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "run length the fixed op counts are sized for")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (a quarter of the ops traced, a quarter untraced) printing the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "1/50 of every op count and one short set-up; exits non-zero on any failed check")
	aa := flag.Int("aa", 0, "run two interleaved sets of N timed runs per workload and compare them against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(o, *aa))
	case o.workload == "":
		os.Exit(runAll(o))
	default:
		os.Exit(runOne(o))
	}
}

// outDir is bench/out when run from the repository root, out when run from
// inside bench; the traces and the campaign's store go there.
func outDir() (string, error) {
	dir := "out"
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		dir = "bench/out"
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// runOne runs one workload in this process and prints its result line.
func runOne(o options) int {
	wl := workloadByName(o.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", o.workload)
		return 2
	}
	out, err := outDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	p := params{seed: o.seed, procs: min(runtime.NumCPU(), 4), warm: 60, traced: o.trace == 1, outDir: out}
	runtime.GOMAXPROCS(p.procs)
	ops := int(wl.opsPerSecond*float64(o.seconds) + 0.5)
	setups := wl.setups
	if o.smoke {
		ops, setups, p.warm = max(ops/50, 8), 1, 12
	}

	var res result
	var info []string
	if p.traced {
		res, info, err = runTraced(wl, p, ops)
	} else {
		res, info, err = runTimed(wl, p, ops, setups)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", wl.name, err)
		return 1
	}
	printTable(wl, o, p, res, info)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if o.smoke && !res.Correct {
		return 1
	}
	return 0
}

// runTimed sets the workload up several times, then measures one untraced
// pass over the last instance.
func runTimed(wl *workload, p params, ops, setups int) (result, []string, error) {
	var rg rig
	var warm uint64
	var times []float64
	var ps pass
	for i := 0; i < setups; i++ {
		if rg != nil {
			rg.close()
			rg = nil
			runtime.GC()
		}
		t0 := time.Now()
		r, err := wl.setup(p, nil)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		rg = r
		if d := rg.digest(); i == 0 {
			warm = d
		} else if d != warm {
			ps.fail("set-up %d left warm state %x, set-up 1 left %x", i+1, d, warm)
		}
	}
	rg.timed(ops, &ps)
	rg.close()

	opP50, opP99, opN := ps.op.summary()
	altP50, altP99, altN := ps.alt.summary()
	units := float64(ps.units)
	values := map[string]float64{
		"setup_s":         median(times),
		"alloc_kb_per_op": float64(ps.allocBytes) / 1024 / units,
		"peak_rss_mb":     peakRSSMB(),
	}
	res := result{Correct: ps.failed == 0, Attempted: ps.attempted, Failed: ps.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	info := append([]string{
		fmt.Sprintf("%d %ss in %.2f s of a %.2f s timed phase; %d set-ups, fastest %.4f s, slowest %.4f s", ps.units, wl.unit, ps.workWall.Seconds(), ps.wall.Seconds(), setups, slices.Min(times), slices.Max(times)),
		fmt.Sprintf("%.2f %ss/s, cpu %.1f us/%s; op: n=%d p50=%.4f ms p99=%.4f ms; alt: n=%d p50=%.4f ms p99=%.4f ms",
			ps.rate(), wl.unit, us(ps.cpu)/units, wl.unit, opN, ms(opP50), ms(opP99), altN, ms(altP50), ms(altP99)),
		fmt.Sprintf("warm state digest %.0f", digestValue(warm)),
	}, ps.info...)
	return res, info, nil
}

// runTraced sets up once and measures a traced pass over a quarter of the
// ops between two untraced passes over an eighth each, so that a drift of
// the host along the run cancels out of the overhead figure. The untraced
// passes give the run's speed and latencies. Then it writes the spans out.
func runTraced(wl *workload, p params, ops int) (result, []string, error) {
	tr := newTracer(1 << 16)
	rg, err := wl.setup(p, tr)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	defer rg.close()
	var before, ps, after pass
	layers := make(map[string]float64)
	rg.timed(max(ops/8, 1), &before)
	tr.on.Store(true)
	rg.traced(max(ops/4, 1), &ps, tr, layers)
	tr.on.Store(false)
	rg.timed(max(ops/8, 1), &after)
	base := pass{
		units: before.units + after.units, workWall: before.workWall + after.workWall, cpu: before.cpu + after.cpu,
		op: append(before.op, after.op...), alt: append(before.alt, after.alt...),
		attempted: before.attempted + after.attempted, failed: before.failed + after.failed,
	}

	spans := tr.snapshot()
	if err := writeTrace(p.outDir, wl.name, p.seed, spans); err != nil {
		return result{}, nil, fmt.Errorf("write trace: %w", err)
	}
	baseOp, _, _ := base.op.summary()
	baseAlt, _, _ := base.alt.summary()
	layers["work_per_s"] = base.rate()
	layers["op_p50_ms"] = ms(baseOp)
	layers["alt_p50_ms"] = ms(baseAlt)
	layers["cpu_us_per_op"] = us(base.cpu) / float64(base.units)
	opP50, opP99, _ := ps.op.summary()
	_, altP99, _ := ps.alt.summary()
	layers["trace.op_p50_ms"] = ms(opP50)
	layers["trace.op_p99_ms"] = ms(opP99)
	layers["trace.alt_p99_ms"] = ms(altP99)
	layers["trace.overhead_pct"] = 100 * (1 - ps.rate()/base.rate())
	layers["trace.spans"] = float64(len(spans))

	failed := base.failed + ps.failed
	res := result{Correct: failed == 0, Attempted: base.attempted + ps.attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		delete(layers, m.Name)
	}
	for name := range layers {
		return result{}, nil, fmt.Errorf("layer metric %q is not declared in perLayer", name)
	}
	info := append([]string{
		fmt.Sprintf("untraced passes %d %ss at %.2f/s, traced pass %d at %.2f/s; %d spans in %s/%s.trace.json",
			base.units, wl.unit, base.rate(), ps.units, ps.rate(), len(spans), p.outDir, wl.name),
	}, ps.info...)
	return res, info, nil
}

// printTable writes the human-readable report to stderr: every metric by
// name with its unit, zeros of layers the workload bypasses left out.
func printTable(wl *workload, o options, p params, res result, info []string) {
	w := os.Stderr
	kind := "timed"
	if p.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s run, seed %d, sized for %d s, GOMAXPROCS %d, %s)\n", wl.name, kind, o.seed, o.seconds, p.procs, runtime.Version())
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if m := res.Metrics[name]; m.Value != 0 || !p.traced {
			fmt.Fprintf(w, "  %-24s %16.4f %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  %-24s %16d\n  %-24s %16d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for _, line := range info {
		fmt.Fprintf(w, "  %s\n", line)
	}
}
