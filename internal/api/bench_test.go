package api

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// BenchmarkPingClientParallel measures the lock-free ping path under
// contention: a background goroutine steps the world (publishing a fresh
// snapshot every tick) while b.RunParallel hammers PingClient. Before the
// snapshot refactor every iteration serialized on Service.mu; now
// throughput should scale with GOMAXPROCS.
func BenchmarkPingClientParallel(b *testing.B) {
	s := Scenario{City: "sf", Seed: 42, Jitter: true}.Build()
	for i := 0; i < 64; i++ {
		s.Register(fmt.Sprintf("bench-%02d", i))
	}
	loc := center(s)
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			s.Step()
		}
	}()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprintf("bench-%02d", ctr.Add(1)%64)
		for pb.Next() {
			if _, err := s.PingClient(id, loc); err != nil {
				b.Errorf("PingClient: %v", err)
				return
			}
		}
	})
	b.StopTimer()
	stop.Store(true)
	<-done
}

// BenchmarkPingClientSerial is the single-goroutine baseline for the
// parallel benchmark (no background stepping).
func BenchmarkPingClientSerial(b *testing.B) {
	s := Scenario{City: "sf", Seed: 42, Jitter: true}.Build()
	s.Register("bench-00")
	loc := center(s)
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PingClient("bench-00", loc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatePriceParallel exercises the sharded rate-limit charge
// plus the snapshot read, across 64 accounts so charges spread over all
// 16 shards.
func BenchmarkEstimatePriceParallel(b *testing.B) {
	s := Scenario{City: "sf", Seed: 42}.Build()
	for i := 0; i < 64; i++ {
		s.Register(fmt.Sprintf("bench-%02d", i))
	}
	loc := center(s)
	s.Step()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprintf("bench-%02d", ctr.Add(1)%64)
		for pb.Next() {
			if _, err := s.EstimatePrice(id, loc); err != nil && !errors.Is(err, ErrRateLimited) {
				b.Errorf("EstimatePrice: %v", err)
				return
			}
		}
	})
}

// BenchmarkRemotePing is a ping as a remote campaign pays for it: an
// httptest shard, Remote.PingClientCtx, one connection. Allocations cover
// both ends (the server runs in this process); the client's share is the
// four slabs of core.DecodePing plus net/http's per-request state.
func BenchmarkRemotePing(b *testing.B) {
	s := Scenario{City: "manhattan", Seed: 42}.Build()
	s.Register("bench-00")
	s.RunUntil(300)
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()
	remote := NewRemote(ts.URL, ts.Client(), WithoutRetry(), WithoutBreaker(), WithoutRetryBudget())
	loc, ctx := center(s), context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.PingClientCtx(ctx, "bench-00", loc); err != nil {
			b.Fatal(err)
		}
	}
}
