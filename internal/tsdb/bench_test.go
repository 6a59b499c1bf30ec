package tsdb

import (
	"math/rand"
	"testing"
)

// benchCampaign is a 43-client campaign round set sized for benchmarks
// (43 clients is the paper's SF/Manhattan measurement grid).
func benchCampaign(rounds int) [][]Row {
	rng := rand.New(rand.NewSource(99))
	const clients = 43
	perSeries := make([][]Row, clients)
	for s := 0; s < clients; s++ {
		perSeries[s] = randomRows(rng, s, rounds, 0)
	}
	byRound := make([][]Row, rounds)
	for i := 0; i < rounds; i++ {
		for s := 0; s < clients; s++ {
			byRound[i] = append(byRound[i], perSeries[s][i])
		}
	}
	return byRound
}

func BenchmarkAppend(b *testing.B) {
	rounds := benchCampaign(200)
	db, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		round := rounds[i%len(rounds)]
		base := int64(i/len(rounds)) * 1e6 // keep time monotonic across laps
		for _, row := range round {
			row.Time += base
			if err := db.Append(row); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := db.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkSealedBytesPerRow(b *testing.B) {
	rounds := benchCampaign(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, round := range rounds {
			for _, row := range round {
				if err := db.Append(row); err != nil {
					b.Fatal(err)
				}
				n++
			}
		}
		if err := db.Seal(); err != nil {
			b.Fatal(err)
		}
		st := db.Stats()
		db.Close()
		b.ReportMetric(float64(st.SegmentBytes)/float64(n), "bytes/row")
	}
}

// BenchmarkSeal measures turning a head of rows into a sealed segment:
// the appends, which encode each series' full chunks as they fill, and
// the seal, which writes those and encodes the rest. Timing only Seal
// would miss the encoding the head now does at Append.
func BenchmarkSeal(b *testing.B) {
	rounds := benchCampaign(1100) // two full chunks and a partial one per series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := Open(b.TempDir(), Options{HeadMaxRows: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, round := range rounds {
			for _, row := range round {
				if err := db.Append(row); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := db.Seal(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkRangeQuery measures a one-hour window query against a sealed
// multi-hour store — the access pattern cmd/analyze uses with -from/-to.
func BenchmarkRangeQuery(b *testing.B) {
	rounds := benchCampaign(2000) // ~2.8 campaign hours at 5s/round
	db, err := Open(b.TempDir(), Options{HeadMaxRows: 20000})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, round := range rounds {
		for _, row := range round {
			if err := db.Append(row); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := db.Seal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := db.Query(7, 4000, 4720) // 720s window, one series
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("window query returned nothing")
		}
	}
}

// BenchmarkFullScan is the baseline the range query is compared against:
// decode every row in the store.
func BenchmarkFullScan(b *testing.B) {
	rounds := benchCampaign(2000)
	db, err := Open(b.TempDir(), Options{HeadMaxRows: 20000})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	total := 0
	for _, round := range rounds {
		for _, row := range round {
			if err := db.Append(row); err != nil {
				b.Fatal(err)
			}
			total++
		}
	}
	if err := db.Seal(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := db.QueryAll(-1<<62, 1<<62)
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil {
			b.Fatal(err)
		}
		if n != total {
			b.Fatalf("scan saw %d rows, want %d", n, total)
		}
	}
}
