package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"cpu: Intel(R) Xeon(R) Processor @ 2.10GHz",
		"BenchmarkStep/fleet=10k-2  	       5	    739903 ns/op	  178584 B/op	     526 allocs/op",
		"BenchmarkSnapshotEpoch/fleet=100k         	       5	  11176933 ns/op	 4412643 B/op	    5250 allocs/op",
		"BenchmarkRoute-16 	     300	    589543.5 ns/op",
		"BenchmarkStoreRangeTSDB-2 	       5	 150073724 ns/op	      5160 rows/op	10004916 B/op	    5277 allocs/op",
		"BenchmarkRouteCity-2    	       5	      2666 ns/op	        19.80 potentials/op	         1.000 routes/op	       0 B/op	       0 allocs/op",
		"BenchmarkBroken-2 	       5	    n/a ns/op",
		"--- BENCH: BenchmarkStep/fleet=10k-2",
		"PASS",
	}, "\n")
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]metrics{
		"BenchmarkStep/fleet=10k":           {NsOp: 739903, BOp: 178584, AllocsOp: 526},
		"BenchmarkSnapshotEpoch/fleet=100k": {NsOp: 11176933, BOp: 4412643, AllocsOp: 5250},
		"BenchmarkRoute":                    {NsOp: 589543.5},
		"BenchmarkStoreRangeTSDB":           {NsOp: 150073724, BOp: 10004916, AllocsOp: 5277, PerOp: map[string]float64{"rows/op": 5160}},
		"BenchmarkRouteCity":                {NsOp: 2666, PerOp: map[string]float64{"potentials/op": 19.8, "routes/op": 1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed rows\n got  %+v\n want %+v", got, want)
	}
}

func TestCheck(t *testing.T) {
	base := metrics{NsOp: 15_000_000, BOp: 4_412_652, AllocsOp: 5250}
	cases := []struct {
		name  string
		have  metrics
		fails []string // a substring of each expected failure line, in order
	}{
		{"equal", base, nil},
		{"all better", metrics{NsOp: 9e6, BOp: 1000, AllocsOp: 3}, nil},
		{"allocs at the cap", metrics{NsOp: 15e6, BOp: base.BOp, AllocsOp: 5250 + 52 + 8}, nil},
		{"allocs over the cap", metrics{NsOp: 15e6, BOp: base.BOp, AllocsOp: 5250 + 52 + 9}, []string{"allocs/op"}},
		{"bytes at the cap", metrics{NsOp: 15e6, BOp: base.BOp + 44_126 + 1024, AllocsOp: 5250}, nil},
		{"bytes +5%", metrics{NsOp: 15e6, BOp: base.BOp + base.BOp/20, AllocsOp: 5250}, []string{"B/op"}},
		{"bytes up, allocs down", metrics{NsOp: 15e6, BOp: 14_949_494, AllocsOp: 1877}, []string{"B/op"}},
		// Wall-clock is reported, never gated: unchanged code ran 20% apart
		// on the host the baseline was recorded on.
		{"ns doubled", metrics{NsOp: 30e6, BOp: base.BOp, AllocsOp: 5250}, nil},
		{"everything worse", metrics{NsOp: 30e6, BOp: 2 * base.BOp, AllocsOp: 2 * 5250}, []string{"allocs/op", "B/op"}},
	}
	for _, c := range cases {
		got := check("BenchmarkX", c.have, base)
		if len(got) != len(c.fails) {
			t.Errorf("%s: failures %q, want %d", c.name, got, len(c.fails))
			continue
		}
		for i, sub := range c.fails {
			if !strings.HasPrefix(got[i], "FAIL BenchmarkX: ") || !strings.Contains(got[i], sub) {
				t.Errorf("%s: failure %d = %q, want a FAIL line naming %s", c.name, i, got[i], sub)
			}
		}
	}
}

// A zero-byte, zero-alloc baseline (BenchmarkRoute) still has its slack.
func TestCheckZeroBaseline(t *testing.T) {
	want := metrics{NsOp: 170471}
	if f := check("BenchmarkRoute", metrics{NsOp: 170471, BOp: byteSlack, AllocsOp: allocSlack}, want); f != nil {
		t.Errorf("slack refused: %q", f)
	}
	if f := check("BenchmarkRoute", metrics{NsOp: 170471, BOp: byteSlack + 1, AllocsOp: allocSlack + 1}, want); len(f) != 2 {
		t.Errorf("failures %q, want B/op and allocs/op", f)
	}
}

// A per-op metric the baseline names may not rise at all; one it does not
// name is not gated, and one it names must be in the output.
func TestCheckPerOp(t *testing.T) {
	want := metrics{NsOp: 1e6, PerOp: map[string]float64{"routes/op": 60, "settled/op": 600}}
	have := metrics{NsOp: 2e6, PerOp: map[string]float64{"routes/op": 60, "settled/op": 600, "potentials/op": 9999}}
	if f := check("BenchmarkX", have, want); f != nil {
		t.Errorf("equal counts refused: %q", f)
	}
	have.PerOp["settled/op"] = 599
	if f := check("BenchmarkX", have, want); f != nil {
		t.Errorf("fewer settled refused: %q", f)
	}
	have.PerOp["settled/op"] = 600.1
	if f := check("BenchmarkX", have, want); len(f) != 1 || !strings.Contains(f[0], "settled/op") {
		t.Errorf("failures %q, want one naming settled/op", f)
	}
	delete(have.PerOp, "routes/op")
	if f := check("BenchmarkX", have, want); len(f) != 2 || !strings.Contains(f[0], "routes/op missing") {
		t.Errorf("failures %q, want routes/op missing first", f)
	}
}
