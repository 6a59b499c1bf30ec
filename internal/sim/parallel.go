package sim

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// The phase-parallel tick.
//
// Step's expensive phases (movement/cruise and window stats) run over
// fixed driver shards spread across Config.Workers goroutines.
// Determinism is by construction, not by scheduling discipline:
//
//   - The shard structure is fixed: shardSize drivers per shard,
//     regardless of worker count. Workers only decide *who* runs a
//     shard, never *what* a shard contains.
//   - Each (seed, tick, shard) triple owns a private counter-based RNG
//     stream (splitmix64, the same generator internal/chaos uses for
//     replayable faults), so no random draw order depends on which
//     worker got there first.
//   - The parallel phase mutates only driver-local state and appends
//     world-level mutations (grid updates, removals, counter deltas) to
//     per-shard buffers. A serial commit then applies the buffers in
//     (shard, index) order.
//
// The result is bit-for-bit identical for every worker count, including
// workers=1, which runs the same code inline on the calling goroutine.

// shardSize is the fixed number of drivers per shard. It is a constant —
// never derived from the worker count — so the shard decomposition (and
// with it every RNG stream assignment) is invariant across worker counts.
const shardSize = 256

// numShards returns how many shards cover n drivers.
func numShards(n int) int { return (n + shardSize - 1) / shardSize }

// shardBounds returns the half-open driver index range of shard s.
func shardBounds(s, n int) (lo, hi int) {
	lo = s * shardSize
	hi = lo + shardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// mix64 is the splitmix64 finalizer (Steele et al.), the same mixer
// internal/chaos uses for replayable fault decisions.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shardStream is a splitmix64 sequence usable as a rand.Source64, so the
// full rand.Rand distribution toolkit (NormFloat64's ziggurat, Intn,
// Float64) draws from a stream keyed purely by (seed, tick, shard).
// Unlike rand.NewSource it has no per-stream initialization cost, which
// matters because every shard gets a fresh stream every tick.
type shardStream struct{ state uint64 }

func (s *shardStream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

func (s *shardStream) Int63() int64 { return int64(s.Uint64() >> 1) }
func (s *shardStream) Seed(int64)   {}

// shardRand returns the RNG stream owned by movement shard s for the
// current tick. Streams for distinct (seed, tick, shard) triples are
// independent; the same triple always yields the same stream. Re-keying
// the shard's long-lived stream replays exactly the sequence a fresh
// rand.New(&shardStream{...}) would produce, without allocating — the
// movement phase's zero-allocation budget depends on it.
func (w *World) shardRand(s int) *rand.Rand {
	h := mix64(uint64(w.cfg.Seed) ^ 0x6a09e667f3bcc908)
	h = mix64(h ^ uint64(w.tick))
	o := &w.moveOps[s]
	o.stream.state = mix64(h ^ uint64(s))
	return o.rng
}

// growMoveOps extends the per-shard movement state to cover shards.
// Serial-phase only: the parallel fan-out indexes moveOps and never
// appends to anything the shards share.
func (w *World) growMoveOps(shards int) {
	for len(w.moveOps) < shards {
		o := shardOps{stream: &shardStream{}}
		o.rng = rand.New(o.stream)
		o.mv = w.mv.forShard()
		w.moveOps = append(w.moveOps, o)
	}
}

// Stream salts for the per-item RNG streams of the parallelized spawn
// and dispatch phases. Each spawned driver and each passenger request
// owns a private (seed, tick, salt, index) stream, so the parallel
// precompute draws the same numbers no matter how items are sharded
// across workers. The keying constant differs from shardRand's, keeping
// these streams structurally independent of the movement shards'.
const (
	saltSpawn = 1
	saltReq   = 2
)

// phaseRand returns the RNG stream owned by item i of the salted phase
// for the current tick.
func (w *World) phaseRand(salt uint64, i int) *rand.Rand {
	h := mix64(uint64(w.cfg.Seed) ^ 0x9b05688c2b3e6c1f)
	h = mix64(h ^ uint64(w.tick))
	h = mix64(h ^ salt)
	h = mix64(h ^ uint64(i))
	return rand.New(&shardStream{state: h})
}

// runShards invokes fn(shard) for every shard in [0, n), spread over the
// world's workers. With one worker (or one shard) it runs inline on the
// calling goroutine. fn must not touch shared mutable state; anything a
// shard wants to change about the world goes into its own buffer and is
// committed serially by the caller.
func (w *World) runShards(n int, fn func(shard int)) {
	workers := w.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for s := 0; s < n; s++ {
			fn(s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= n {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
}
