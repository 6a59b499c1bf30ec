package record

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
)

// benchRound feeds one realistic ping round into sinks: nClients clients,
// 4 products each, 6-8 visible cars per product with slowly-churning IDs
// (the regime the dictionary encoder sees in a real campaign).
func benchRound(rng *rand.Rand, sinks []client.Sink, now int64, nClients int) {
	for c := 0; c < nClients; c++ {
		resp := &core.PingResponse{Time: now}
		for p := 0; p < 4; p++ {
			ts := core.TypeStatus{
				Type:       core.VehicleType(p),
				TypeName:   core.VehicleType(p).String(),
				Surge:      1 + float64(rng.Intn(15))*0.1,
				EWTSeconds: float64(60 + rng.Intn(500)),
			}
			for k := 0; k < 6+rng.Intn(3); k++ {
				// Car IDs churn slowly: mostly the same pool round to round.
				ts.Cars = append(ts.Cars, core.CarView{
					ID:  fmt.Sprintf("car-%d-%d-%d", c, p, rng.Intn(12)),
					Pos: geo.LatLng{Lat: 37.7 + rng.Float64()*0.1, Lng: -122.4 + rng.Float64()*0.1},
				})
			}
			resp.Types = append(resp.Types, ts)
		}
		for _, s := range sinks {
			s.Observe(c, geo.Point{}, resp)
		}
	}
	for _, s := range sinks {
		s.EndRound(now)
	}
}

const (
	benchClients = 43 // the paper's SF campaign used 43 measurement points
	benchStart   = 1000
)

// writeBenchStore records a synthetic campaign into a store at dir and
// returns its size on disk in bytes.
func writeBenchStore(tb testing.TB, dir string, rounds int) int64 {
	hdr := Header{City: "bench", Start: benchStart, Clients: make([]geo.Point, benchClients)}
	w, err := Create(StoreTSDB, dir, hdr, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < rounds; r++ {
		benchRound(rng, []client.Sink{w}, benchStart+int64(r)*5, benchClients)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	var total int64
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			total += fi.Size()
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return total
}

// BenchmarkStoreWriteTSDB records a 200-round, 43-client campaign;
// bytes/row is the per-observation cost on disk, measured sealed, as a
// long campaign mostly is.
func BenchmarkStoreWriteTSDB(b *testing.B) {
	const rounds = 200
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = writeBenchStore(b, filepath.Join(b.TempDir(), "c.tsdb"), rounds)
	}
	b.ReportMetric(float64(bytes)/float64(rounds*benchClients), "bytes/row")
	b.ReportMetric(float64(rounds*benchClients*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// countSink tallies replayed rows without retaining them.
type countSink struct{ rows int64 }

func (s *countSink) Observe(int, geo.Point, *core.PingResponse) { s.rows++ }
func (s *countSink) EndRound(int64)                             {}

// BenchmarkStoreRangeTSDB replays a 120-round window out of a 2000-round
// campaign — the "analyze one evening of a four-week campaign" access
// pattern: the store reads only the chunks whose time range overlaps the
// window.
func BenchmarkStoreRangeTSDB(b *testing.B) {
	path := filepath.Join(b.TempDir(), "c.tsdb")
	writeBenchStore(b, path, 2000)
	benchRange(b, path)
}

func benchRange(b *testing.B, path string) {
	from := int64(benchStart + 1000*5)
	to := from + 120*5
	b.ResetTimer()
	var rows int64
	for i := 0; i < b.N; i++ {
		var s countSink
		if _, _, err := ReplayPathRange(path, from, to, &s); err != nil {
			b.Fatal(err)
		}
		rows = s.rows
	}
	if rows != 120*benchClients {
		b.Fatalf("window replayed %d rows, want %d", rows, 120*benchClients)
	}
	b.ReportMetric(float64(rows), "rows/op")
}
