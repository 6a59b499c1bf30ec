package api

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentQueriesDuringSteps hammers the lock-free query path from
// several goroutines while the backend steps continuously, with account
// registration churn on top. Run under -race this proves the tentpole
// claim: queries and snapshot publication never touch shared mutable
// state. Each goroutine also checks that the response timestamps it sees
// never go backwards — epochs are published monotonically.
func TestConcurrentQueriesDuringSteps(t *testing.T) {
	s := Scenario{City: "sf", Seed: 77, Jitter: true}.Build()
	stressQueriesDuringSteps(t, s, 200)
}

// TestParallelStepConcurrentQueries runs the same gauntlet against a
// backend whose tick itself fans out over multiple workers: the parallel
// movement/stats/snapshot phases must not leak shared mutable state to
// the lock-free query path (this is the -race probe for Step-internal
// parallelism meeting concurrent reads).
func TestParallelStepConcurrentQueries(t *testing.T) {
	s := Scenario{City: "sf", Seed: 78, Jitter: true, Workers: 4}.Build()
	stressQueriesDuringSteps(t, s, 120)
}

func stressQueriesDuringSteps(t *testing.T, s *Service, steps int) {
	s.SetLocationFuzz(15)
	const pingers, estimators = 4, 2
	ids := make([]string, pingers+estimators)
	for i := range ids {
		ids[i] = fmt.Sprintf("stress-%02d", i)
		s.Register(ids[i])
	}
	loc := center(s)
	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	for i := 0; i < pingers; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			last := int64(-1)
			for !stop.Load() {
				resp, err := s.PingClient(id, loc)
				if err != nil {
					fail("PingClient(%s): %v", id, err)
					return
				}
				if resp.Time < last {
					fail("PingClient(%s): time went backwards %d -> %d", id, last, resp.Time)
					return
				}
				last = resp.Time
				if len(resp.Types) == 0 {
					fail("PingClient(%s): empty response", id)
					return
				}
			}
		}(ids[i])
	}
	for i := 0; i < estimators; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.EstimatePrice(id, loc); err != nil && !errors.Is(err, ErrRateLimited) {
					fail("EstimatePrice(%s): %v", id, err)
					return
				}
				if _, err := s.EstimateTime(id, loc); err != nil && !errors.Is(err, ErrRateLimited) {
					fail("EstimateTime(%s): %v", id, err)
					return
				}
			}
		}(ids[pingers+i])
	}
	// Registration churn across all shards while queries are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for !stop.Load() {
			s.Register(fmt.Sprintf("churn-%04d", n))
			if n%7 == 0 {
				s.Accounts()
			}
			n++
		}
	}()
	for i := 0; i < steps; i++ {
		s.Step()
	}
	stop.Store(true)
	wg.Wait()
}

// TestConcurrentPartnerMapDuringSteps covers the remaining snapshot-served
// surface under the same churn.
func TestConcurrentPartnerMapDuringSteps(t *testing.T) {
	s := Scenario{City: "manhattan", Seed: 13}.Build()
	if err := s.RegisterPartner("drv-1", true); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			m, err := s.PartnerMap("drv-1")
			if err != nil || len(m) == 0 {
				t.Errorf("PartnerMap: %v (len %d)", err, len(m))
				stop.Store(true)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		s.Step()
	}
	stop.Store(true)
	wg.Wait()
}

// TestShardedAccountsConcurrent drives the account table from many
// goroutines: registration, auth, and rate-limit charges on overlapping
// IDs must be linearizable per account under -race.
func TestShardedAccountsConcurrent(t *testing.T) {
	s := Scenario{City: "sf", Seed: 3}.Build()
	loc := center(s)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("acct-%03d", i%37) // deliberate collisions
				s.Register(id)
				if _, err := s.EstimateTime(id, loc); err != nil && !errors.Is(err, ErrRateLimited) {
					t.Errorf("EstimateTime(%s): %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Accounts(); got != 37 {
		t.Fatalf("Accounts() = %d, want 37", got)
	}
	// 8 goroutines * 200 charges = 1600 attempts on 37 accounts; none
	// should have exceeded the per-account limit, so a fresh charge on a
	// cold account still succeeds.
	s.Register("fresh")
	if _, err := s.EstimateTime("fresh", loc); err != nil {
		t.Fatalf("fresh account charge: %v", err)
	}
}
