package clusterdes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hipster/internal/autoscale"
	"hipster/internal/faults"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/workload"
)

// linearRoute is the routing walk routeIndex replaced, kept as its
// reference: accumulate the positive shares of the active prefix in
// index order, stop at the first running sum above u, and fall back to
// the last positive share when u reaches the total.
func linearRoute(shares []float64, active int, u float64) int {
	acc := 0.0
	last := -1
	for i := 0; i < active; i++ {
		if shares[i] <= 0 {
			continue
		}
		last = i
		acc += shares[i]
		if u < acc {
			return i
		}
	}
	return last
}

// routeLoop builds a loop with one fresh node per share and the given
// active prefix, its shares set the way refreshInterval sets them.
func routeLoop(shares []float64, active int, seed int64) *loop {
	l := &loop{nodes: make([]*desNode, len(shares)), active: active, routeRNG: rand.New(rand.NewSource(seed))}
	for i := range l.nodes {
		l.nodes[i] = &desNode{id: i}
	}
	l.shares, l.cumShares = newShares(len(shares))
	for i := 0; i < active; i++ {
		l.setShare(i, shares[i])
	}
	return l
}

// TestRouteIndexMatchesLinearWalk checks the binary-search routing
// against the linear walk on generated share vectors with zero (and
// negative-zero) shares anywhere, including trailing ones, at every
// running-sum boundary, just below it, at zero, at a u that has rounded
// up to shareSum, and over the routing stream itself.
func TestRouteIndexMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		shares := make([]float64, n)
		for i := range shares {
			switch r := rng.Float64(); {
			case r < 0.3:
				shares[i] = 0
			case r < 0.35:
				shares[i] = math.Copysign(0, -1)
			case r < 0.4:
				shares[i] = rng.Float64() * 1e-300
			case r < 0.5:
				shares[i] = float64(1 + rng.Intn(3)) // exact sums, many ties
			default:
				shares[i] = rng.ExpFloat64() * 1000
			}
		}
		active := 1 + rng.Intn(n)
		l := routeLoop(shares, active, int64(trial))
		if !(l.shareSum > 0) {
			continue
		}
		us := []float64{0, l.shareSum, math.Nextafter(l.shareSum, 0)}
		for _, c := range l.cumShares[:active] {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
		}
		for k := 0; k < 64; k++ {
			us = append(us, rng.Float64()*l.shareSum)
		}
		for _, u := range us {
			if u > l.shareSum {
				continue // routeDraw never draws above the total
			}
			got, want := l.routeIndex(u), linearRoute(shares, active, u)
			if got != want {
				t.Fatalf("trial %d (n=%d active=%d): u=%v routes to %d, linear walk %d",
					trial, n, active, u, got, want)
			}
			if shares[got] <= 0 {
				t.Fatalf("trial %d: u=%v routed to zero-share node %d", trial, u, got)
			}
		}
		ref := rand.New(rand.NewSource(int64(trial)))
		for k := 0; k < 64; k++ {
			got := l.routeDraw()
			want := l.nodes[linearRoute(shares, active, ref.Float64()*l.shareSum)]
			if got != want {
				t.Fatalf("trial %d draw %d: routeDraw picked node %d, linear walk node %d", trial, k, got.id, want.id)
			}
		}
	}
}

// phasedPolicy proposes a fixed active count per phase: the full roster,
// then half of it from interval downAt (scale-down migrations), then the
// full roster again from interval upAt.
type phasedPolicy struct{ full, downAt, upAt int }

func (phasedPolicy) Name() string { return "phased" }

func (p phasedPolicy) Desired(ctx autoscale.Context) int {
	if ctx.Interval >= p.downAt && ctx.Interval < p.upAt {
		return p.full / 2
	}
	return p.full
}

// assertDeepCounts recounts, for every domain loop, its nodes whose raw
// queue length is at least minDepth, and returns the total.
func assertDeepCounts(t *testing.T, f *Fleet, step int) int {
	t.Helper()
	total := 0
	for _, l := range f.domains {
		want := 0
		for _, n := range l.nodes {
			if n.queue.Len() >= l.minDepth {
				want++
			}
		}
		if l.deep != want {
			t.Fatalf("after Run(%d): loop %d counts %d deep queues, recount %d", step, l.id, l.deep, want)
		}
		total += want
	}
	return total
}

// TestDeepQueueCountMatchesRecount steps work-stealing fleets one
// boundary at a time and recounts every loop's deep queues at each
// boundary, across crash, spot-revocation and partition faults,
// autoscale-down migrations, and one and four routing domains — every
// path that changes a queue.
func TestDeepQueueCountMatchesRecount(t *testing.T) {
	scripts := []struct {
		name string
		evs  []faults.Event
	}{
		{"no-faults", nil},
		{"crash", []faults.Event{
			{Interval: 4, Kind: faults.Crash, Node: 1},
			{Interval: 7, Kind: faults.Crash, Node: 6},
			{Interval: 9, Kind: faults.Recover, Node: 1},
			{Interval: 12, Kind: faults.Recover, Node: 6},
		}},
		{"spot", []faults.Event{
			{Interval: 3, Kind: faults.RevokeNotice, Node: 2},
			{Interval: 4, Kind: faults.RevokeNotice, Node: 7},
			{Interval: 5, Kind: faults.Revoke, Node: 2},
			{Interval: 6, Kind: faults.Revoke, Node: 7},
			{Interval: 10, Kind: faults.Restore, Node: 2},
			{Interval: 11, Kind: faults.Restore, Node: 7},
		}},
		{"partition", []faults.Event{
			{Interval: 3, Kind: faults.PartitionStart, Node: -1, Cut: 3},
			{Interval: 12, Kind: faults.PartitionEnd, Node: -1},
		}},
	}
	const horizon = 24
	for _, sc := range scripts {
		for _, scale := range []bool{false, true} {
			for _, domains := range []int{1, 4} {
				name := sc.name
				if scale {
					name += "/autoscale-down"
				}
				t.Run(fmt.Sprintf("%s/domains=%d", name, domains), func(t *testing.T) {
					t.Parallel()
					nodes, err := Uniform(8, platform.JunoR1(), workload.WebSearch())
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{
						Nodes:      nodes,
						Pattern:    drainedSpike{spike: loadgen.Spike{Base: 0.9, Peak: 1.4, EverySecs: 6, SpikeSecs: 2}, until: 16, span: horizon},
						Mitigation: WorkStealing{},
						Domains:    domains,
						Seed:       11,
					}
					if sc.evs != nil {
						opts.Faults = &faults.Options{Script: sc.evs}
					}
					if scale {
						opts.Autoscale = &AutoscaleOptions{
							MinNodes:           2,
							InitialNodes:       8,
							Policy:             phasedPolicy{full: 8, downAt: 6, upAt: 12},
							CooldownIntervals:  1,
							DownAfterIntervals: 1,
						}
					}
					fl, err := New(opts)
					if err != nil {
						t.Fatal(err)
					}
					maxDeep := 0
					var res Result
					for k := 1; k <= horizon; k++ {
						if res, err = fl.Run(float64(k)); err != nil {
							t.Fatal(err)
						}
						maxDeep = max(maxDeep, assertDeepCounts(t, fl, k))
					}
					if maxDeep == 0 || res.Stats.Steals == 0 {
						t.Errorf("no queue ever reached the steal depth (max %d) or nothing was stolen (%d)", maxDeep, res.Stats.Steals)
					}
					if scale && res.Stats.Migrated == 0 {
						t.Error("the scale-down migrated nothing")
					}
					st := res.Stats
					if (sc.name == "crash" && st.Crashes == 0) || (sc.name == "spot" && st.Revocations == 0) ||
						(sc.name == "partition" && st.Partitions == 0) {
						t.Errorf("the %s script never fired: %+v", sc.name, st)
					}
				})
			}
		}
	}
}

// memcachedFleet builds the 8-node Memcached fleet of the continued-run
// regression: Constant 0.6, capacity-weighted routing, two workers,
// with the latency sample's decimation point lowered to limit so a
// short run decimates many times.
func memcachedFleet(t *testing.T, limit int) *Fleet {
	t.Helper()
	nodes, err := Uniform(8, platform.JunoR1(), workload.Memcached())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := New(Options{
		Nodes:   nodes,
		Pattern: loadgen.Constant{Frac: 0.6},
		Workers: 2,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.lat.limit = limit
	for _, l := range fl.domains {
		l.lat.limit = limit
	}
	return fl
}

// TestContinuedRunKeepsLatencySample pins that reading a result leaves
// the live latency sample alone: a run continued past the decimation
// point must report exactly the one-shot run's latency summary.
func TestContinuedRunKeepsLatencySample(t *testing.T) {
	const limit = 1 << 12
	oneShot, err := memcachedFleet(t, limit).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Latency.Completed < 8*limit {
		t.Fatalf("only %d completions: the sample never decimated", oneShot.Latency.Completed)
	}
	fl := memcachedFleet(t, limit)
	if _, err := fl.Run(1); err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != oneShot.Latency {
		t.Errorf("continued run reports %+v, one-shot run %+v", res.Latency, oneShot.Latency)
	}
}

// TestRunAllocsIndependentOfWorkers pins that the interval summaries
// allocate nothing per boundary at any worker count: a hedged
// 60-interval run at 4 workers may cost only the pool's one-time start
// (about 20 allocations) over the inline 1-worker run, where a single
// allocation per boundary would already cost 60.
func TestRunAllocsIndependentOfWorkers(t *testing.T) {
	allocs := func(workers int) float64 {
		return testing.AllocsPerRun(3, func() {
			nodes, err := Uniform(16, platform.JunoR1(), workload.WebSearch())
			if err != nil {
				t.Fatal(err)
			}
			fl, err := New(Options{
				Nodes:      nodes,
				Pattern:    loadgen.Constant{Frac: 0.6},
				Mitigation: Hedged{},
				Workers:    workers,
				Seed:       42,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl.Run(60); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, four := allocs(1), allocs(4)
	if d := math.Abs(four - one); d > 32 {
		t.Errorf("a 60-interval run allocates %v times at 4 workers and %v at 1: %v apart, want at most 32",
			four, one, d)
	}
}
