package queueing

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"hipster/internal/stats"
)

// DESConfig configures a discrete-event simulation of the heterogeneous
// pool: Poisson arrivals at Lambda req/s, lognormal service demands with
// the given CV, fastest-idle-server-first dispatch, single FIFO queue.
type DESConfig struct {
	// Servers is read during the run only and never retained; callers
	// may reuse the slice across calls.
	Servers  []Server
	Lambda   float64
	CV       float64
	Duration float64 // measured horizon in seconds
	Warmup   float64 // initial transient to discard
	Seed     int64
	// MaxQueue optionally bounds the queue length (0 = unbounded);
	// arrivals beyond the bound are dropped and counted.
	MaxQueue int
}

// DESummary aggregates the simulated sojourn times.
type DESummary struct {
	Completed   int
	Dropped     int
	Mean        float64
	P50         float64
	P90         float64
	P95         float64
	P99         float64
	Utilization float64 // mean busy fraction across servers
	Throughput  float64 // completions per second over the horizon
}

// Percentile returns the requested percentile from the summary's
// precomputed points, interpolating is not attempted: p must be one of
// 0.50, 0.90, 0.95, 0.99.
func (s DESummary) Percentile(p float64) (float64, error) {
	switch p {
	case 0.50:
		return s.P50, nil
	case 0.90:
		return s.P90, nil
	case 0.95:
		return s.P95, nil
	case 0.99:
		return s.P99, nil
	}
	return 0, errors.New("queueing: unsupported summary percentile")
}

// Simulator owns the discrete-event simulation's scratch state — the
// completion-event heap, the FIFO arrival ring, per-server distributions
// and busy-time accumulators, and the sojourn sample buffer — so
// repeated Run calls (one per monitoring interval on the engine's DES
// path) reuse the buffers instead of reallocating them per call. The
// zero value is ready to use. A Simulator is not safe for concurrent
// use; each goroutine needs its own.
//
// Completions sit on a TimeHeap keyed by completion time with the
// server as payload, and waiting arrival times in a Ring — the same
// primitives the cluster DES's loops run on. TimeHeap replicates
// container/heap's sift order and Ring pops in push order, so Run is
// bit-identical to the reference implementation for any seed.
type Simulator struct {
	dists    []stats.LogNormal
	idle     []bool
	busyTime []float64
	events   TimeHeap[int]
	queue    Ring[float64]
	sojourns []float64
}

// Run executes the discrete-event simulation and summarises the
// sojourn-time distribution. It is deterministic for a given seed and
// independent of any previous Run on the same Simulator.
func (s *Simulator) Run(cfg DESConfig) (DESummary, error) {
	if len(cfg.Servers) == 0 {
		return DESummary{}, ErrNoServers
	}
	if cfg.Lambda < 0 || cfg.Duration <= 0 {
		return DESummary{}, errors.New("queueing: invalid DES parameters")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(cfg.Servers)

	// Reset scratch. The slices keep their capacity across runs.
	if cap(s.dists) < n {
		s.dists = make([]stats.LogNormal, n)
		s.idle = make([]bool, n)
		s.busyTime = make([]float64, n)
	}
	s.dists = s.dists[:n]
	s.idle = s.idle[:n]
	s.busyTime = s.busyTime[:n]
	s.events.Reset()
	s.queue.Reset()
	s.sojourns = s.sojourns[:0]

	// Per-server lognormal service-time distributions.
	for i, sv := range cfg.Servers {
		if sv.Rate <= 0 {
			return DESummary{}, errors.New("queueing: non-positive server rate")
		}
		s.dists[i] = stats.LogNormalFromMeanCV(1/sv.Rate, cfg.CV)
	}
	sample := func(server int) float64 {
		d := s.dists[server]
		if d.Sigma == 0 {
			return 1 / cfg.Servers[server].Rate
		}
		return lognormSample(rng, d)
	}

	// Idle servers kept as a list scanned for the fastest (n is tiny:
	// at most 6 cores on Juno).
	for i := range s.idle {
		s.idle[i] = true
		s.busyTime[i] = 0
	}
	fastestIdle := func() int {
		best := -1
		for i, ok := range s.idle {
			if !ok {
				continue
			}
			if best == -1 || cfg.Servers[i].Rate > cfg.Servers[best].Rate {
				best = i
			}
		}
		return best
	}

	horizon := cfg.Warmup + cfg.Duration
	dropped := 0
	completed := 0

	nextArrival := 0.0
	if cfg.Lambda > 0 {
		nextArrival = rng.ExpFloat64() / cfg.Lambda
	} else {
		nextArrival = horizon + 1
	}

	startService := func(server int, arrival, now float64) {
		s.idle[server] = false
		d := sample(server)
		s.busyTime[server] += d
		done := now + d
		s.events.Push(done, server)
		if arrival >= cfg.Warmup && done <= horizon {
			s.sojourns = append(s.sojourns, done-arrival)
			completed++
		}
	}
	// The queue stores arrival times; service start pairs the oldest
	// waiting arrival with the freed server.
	for {
		var now float64
		if t, ok := s.events.PeekTime(); ok && t <= nextArrival {
			var server int
			now, server = s.events.Pop()
			if now > horizon {
				break
			}
			if s.queue.Len() > 0 {
				startService(server, s.queue.Pop(), now)
			} else {
				s.idle[server] = true
			}
			continue
		}
		now = nextArrival
		if now > horizon {
			break
		}
		nextArrival = now + rng.ExpFloat64()/cfg.Lambda
		if srv := fastestIdle(); srv >= 0 {
			startService(srv, now, now)
		} else if cfg.MaxQueue > 0 && s.queue.Len() >= cfg.MaxQueue {
			dropped++
		} else {
			s.queue.Push(now)
		}
	}

	sum := DESummary{Completed: completed, Dropped: dropped}
	if completed > 0 {
		// The mean sums in completion order (before the sort) so it
		// matches the reference implementation bit for bit; the
		// percentiles then share one in-place sort instead of
		// copy-and-sorting per percentile.
		sum.Mean, _ = stats.Mean(s.sojourns)
		sort.Float64s(s.sojourns)
		sum.P50, _ = stats.PercentileSorted(s.sojourns, 0.50)
		sum.P90, _ = stats.PercentileSorted(s.sojourns, 0.90)
		sum.P95, _ = stats.PercentileSorted(s.sojourns, 0.95)
		sum.P99, _ = stats.PercentileSorted(s.sojourns, 0.99)
		sum.Throughput = float64(completed) / cfg.Duration
	}
	var busy float64
	for _, b := range s.busyTime {
		busy += b
	}
	sum.Utilization = busy / (horizon * float64(n))
	if sum.Utilization > 1 {
		sum.Utilization = 1
	}
	return sum, nil
}

// SimulateDES runs the discrete-event simulation and summarises the
// sojourn-time distribution. It is deterministic for a given seed.
// Callers evaluating many configurations should hold a Simulator and
// call Run instead, which reuses the simulation scratch across calls.
func SimulateDES(cfg DESConfig) (DESummary, error) {
	var s Simulator
	return s.Run(cfg)
}

func lognormSample(rng *rand.Rand, d stats.LogNormal) float64 {
	return math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
}
