package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// params is what one workload run is given.
type params struct {
	seed   int64
	procs  int    // GOMAXPROCS, and the number of load-generating goroutines
	warm   int    // warm-up ticks of every world
	traced bool   // build the rig with its span wrappers in place
	outDir string // scratch space and trace files
}

// pass is what one pass over a workload's ops measured. Work is a fixed
// op count, so wall time is the measurement and allocation repeats.
type pass struct {
	units      int           // work units work_per_s counts
	workWall   time.Duration // wall time of the phase that did them
	wall, cpu  time.Duration // of the whole timed phase
	allocBytes uint64
	op, alt    latencies
	attempted  int
	failed     int
	info       []string // extra lines for the human table
}

// fail counts one failed op or check and says why, the first few times.
func (p *pass) fail(format string, a ...any) {
	if p.failed < 5 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", a...)
	}
	p.failed++
}

func (p *pass) note(format string, a ...any) { p.info = append(p.info, fmt.Sprintf(format, a...)) }

// measure runs the timed phase: it starts after a full GC, and nothing but
// the load loop itself (no timer, no ticker) drives the program under test.
func (p *pass) measure(f func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	f()
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if p.workWall == 0 {
		p.workWall = p.wall
	}
}

func (p *pass) rate() float64 { return float64(p.units) / p.workWall.Seconds() }

// cpuTime is the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark; it is why
// every workload gets a process of its own.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// rig is one set-up instance of a workload.
type rig interface {
	// digest folds the warm state; every set-up of a seed must agree.
	digest() uint64
	// timed runs ops primary ops untraced and fills p.
	timed(ops int, p *pass)
	// traced runs ops primary ops with spans on, then measures single
	// layers directly; layers receives the per-layer metrics.
	traced(ops int, p *pass, tr *tracer, layers map[string]float64)
	close()
}

// workload is one benchmark workload. Its op count is fixed work sized to
// the requested run length: opsPerSecond was calibrated on the reference
// host so that -seconds 20 measures about twenty seconds.
type workload struct {
	name         string
	why          string
	unit         string // what one work unit is
	opsPerSecond float64
	setups       int // how many times set-up runs; setup_s is their median
	setup        func(p params, tr *tracer) (rig, error)
}

var workloads = []*workload{serveGateway, tick100k, tickRoad, campaignStore}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
