package clusterdes

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"hipster/internal/autoscale"
	"hipster/internal/faults"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/resilience"
	"hipster/internal/telemetry"
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

// routeLoop builds a loop over one fresh node per roster slot, its
// routing arrays sized to the roster as newDomains sizes them.
func routeLoop(n int, seed int64) *loop {
	l := &loop{nodes: make([]*desNode, n), routeRNG: rand.New(rand.NewSource(seed))}
	for i := range l.nodes {
		l.nodes[i] = &desNode{id: i}
	}
	l.shares, l.cumShares = newShares(n)
	l.guide = make([]int32, n)
	return l
}

// setShares gives the loop an active prefix and its routing weights the
// way refreshInterval does: shares in index order, then the guide.
func (l *loop) setShares(shares []float64, active int) {
	l.active = active
	l.shareSum = 0
	for i := 0; i < active; i++ {
		l.setShare(i, shares[i])
	}
	l.buildGuide()
}

// TestRouteIndexMatchesLinearWalk checks the guided routing walk
// against the linear walk on generated share vectors with zero (and
// negative-zero) and subnormal shares anywhere, including trailing
// ones, at every running-sum boundary, just below it, at zero, at a u
// that has rounded up to shareSum, from a scrambled guide, and over the
// routing stream itself. Each loop is refreshed five times with new
// shares over active counts that grow to the roster and shrink to one
// node, so every guide is rebuilt over a table a larger or smaller
// prefix last wrote.
func TestRouteIndexMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		l := routeLoop(n, int64(trial))
		ref := rand.New(rand.NewSource(int64(trial)))
		for refresh, active := range []int{1 + rng.Intn(n), n, 1 + rng.Intn(n), 1, 1 + rng.Intn(n)} {
			shares := make([]float64, n)
			for i := range shares {
				switch r := rng.Float64(); {
				case r < 0.3:
					shares[i] = 0
				case r < 0.35:
					shares[i] = math.Copysign(0, -1)
				case r < 0.4:
					shares[i] = rng.Float64() * 1e-300
				case r < 0.42:
					shares[i] = 5e-324
				case r < 0.5:
					shares[i] = float64(1 + rng.Intn(3)) // exact sums, many ties
				default:
					shares[i] = rng.ExpFloat64() * 1000
				}
			}
			l.setShares(shares, active)
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
					t.Fatalf("trial %d refresh %d (n=%d active=%d): u=%v routes to %d, linear walk %d",
						trial, refresh, n, active, u, got, want)
				}
				if shares[got] <= 0 {
					t.Fatalf("trial %d refresh %d: u=%v routed to zero-share node %d", trial, refresh, u, got)
				}
			}
			for k := 0; k < 64; k++ {
				got := l.routeDraw()
				want := l.nodes[linearRoute(shares, active, ref.Float64()*l.shareSum)]
				if got != want {
					t.Fatalf("trial %d refresh %d draw %d: routeDraw picked node %d, linear walk node %d",
						trial, refresh, k, got.id, want.id)
				}
			}
			// The walk corrects any start, so a scrambled guide routes the
			// same, only slower. The next refresh rebuilds it.
			for k := range l.guide[:active] {
				l.guide[k] = int32(rng.Intn(active))
			}
			for _, u := range us {
				if u <= l.shareSum && l.routeIndex(u) != linearRoute(shares, active, u) {
					t.Fatalf("trial %d refresh %d: u=%v routes to %d from a scrambled guide, linear walk %d",
						trial, refresh, u, l.routeIndex(u), linearRoute(shares, active, u))
				}
			}
		}
	}
}

// busySlots counts node n's serving slots: the busy half of its
// committed count.
func busySlots(n *desNode) int {
	busy := 0
	for _, id := range n.serving {
		if id >= 0 {
			busy++
		}
	}
	return busy
}

// hedgeTargetOK reports whether node v may receive request r's hedge
// copy: not the primary's node, not warming, eligible to take work
// from the primary's node, and eligible under the resilience policy.
// It and scanHedgeTarget are the pointer scan hedgeTarget replaced,
// kept as its reference.
func (l *loop) hedgeTargetOK(v *desNode, r *request) bool {
	return int32(v.id) != r.node && v.warmLeft == 0 &&
		l.eligible(v, int(r.node)) && l.hedgeEligible(v)
}

// hedgeEligible reports whether node v may receive a hedge copy under
// the resilience policy: its per-interval hedge budget is not spent and
// its breaker is not open.
func (l *loop) hedgeEligible(v *desNode) bool {
	if l.resil == nil {
		return true
	}
	if l.resil.HedgeBudget > 0 && v.hedgeLeft <= 0 {
		return false
	}
	return v.breaker == nil || v.breaker.State() != resilience.BreakerOpen
}

// scanHedgeTarget returns the least-loaded node among cands (queue
// plus busy slots; the first minimum in candidate order wins) that may
// take request r's hedge copy, nil when none may, and how many
// admitted candidates share the least load.
func (l *loop) scanHedgeTarget(cands []*desNode, r *request) (target *desNode, tied int) {
	bestLoad := 0
	for _, v := range cands {
		if !l.hedgeTargetOK(v, r) {
			continue
		}
		load := v.queue.Len() + busySlots(v)
		switch {
		case target == nil || load < bestLoad:
			target, bestLoad, tied = v, load, 1
		case load == bestLoad:
			tied++
		}
	}
	return target, tied
}

// hedgeScene decodes one hedge-placement scene from s: a hand-built
// fleet of up to 40 nodes in up to four domain loops, with generated
// queues and busy slots (loads 0–6, so ties are common), warming, down,
// draining and suspect nodes, spent budgets (before the boundary's bar
// rebuild, or spent after it the way issued hedges spend them), open
// breakers, an active prefix, a partition cut, and a primary node
// anywhere on the roster. Exhausted fuzz bytes read as zeros.
func hedgeScene(s *laneScript) (*Fleet, *request) {
	next := func(m int) int {
		b, _ := s.byte()
		return int(b) % m
	}
	n := 1 + next(40)
	mode := next(256)
	f := &Fleet{active: 1 + next(n)}
	f.hedging = true
	if mode&1 != 0 {
		f.resil = &resilience.Options{}
		if mode&2 != 0 {
			f.resil.HedgeBudget = 1
		}
		if mode&4 != 0 {
			f.resil.Breaker = &resilience.BreakerOptions{FailureThreshold: 0.5, MinSamples: 1, OpenIntervals: 2}
		}
	}
	if mode&8 != 0 {
		f.suspect = make([]bool, n)
	}
	flat := make([]int32, 2*n)
	f.committed, f.hedgeBars = flat[:n:n], flat[n:]
	var spend []*desNode
	for i := 0; i < n; i++ {
		v := &desNode{id: i, serving: []int32{-1, -1, -1}, hedgeLeft: 1}
		for q := next(4); q > 0; q-- {
			v.queue.Push(0)
		}
		for b := next(4); b > 0; b-- {
			v.serving[b-1] = 0
		}
		if f.resil != nil && f.resil.Breaker != nil {
			v.breaker = resilience.NewBreaker(*f.resil.Breaker)
		}
		// Most nodes are eligible; the rest fail any mix of conditions.
		if flags := next(256); flags >= 128 {
			if flags&1 != 0 {
				v.warmLeft = 1
			}
			v.down = flags&2 != 0
			v.draining = flags&4 != 0
			if flags&8 != 0 && f.suspect != nil {
				f.suspect[i] = true
			}
			if flags&16 != 0 {
				v.hedgeLeft = 0
			}
			if flags&32 != 0 && v.breaker != nil {
				v.breaker.Record(false)
				v.breaker.Roll()
			}
			if flags&64 != 0 {
				spend = append(spend, v)
			}
		}
		f.committed[i] = int32(v.queue.Len() + busySlots(v))
		f.nodes = append(f.nodes, v)
	}
	cut := 0
	if n > 1 && next(2) == 1 {
		cut = 1 + next(n-1)
	}
	starts := PartitionDomains(n, 1+next(min(n, 4)))
	f.rebuildHedgeBars()
	for k := 0; k+1 < len(starts); k++ {
		lo, hi := starts[k], starts[k+1]
		l := &loop{id: k, lo: lo, nodes: f.nodes[lo:hi], settings: f.settings, partCut: cut}
		l.active = min(max(f.active-lo, 0), hi-lo)
		f.domains = append(f.domains, l)
	}
	for _, v := range spend {
		f.domains[0].spendHedgeBudget(v)
	}
	return f, &request{node: int32(next(n))}
}

// hedgeSceneCounts tallies what checked scenes exercised.
type hedgeSceneCounts struct {
	empty, tied, split, primaryInRange int
}

// checkHedgeScene compares hedgeTarget with the reference scan over
// every domain's active range and over the fleet's.
func checkHedgeScene(tb testing.TB, f *Fleet, r *request, c *hedgeSceneCounts) {
	tb.Helper()
	check := func(l *loop, lo, hi int) {
		want, tied := l.scanHedgeTarget(f.nodes[lo:hi], r)
		wantID := -1
		if want != nil {
			wantID = want.id
		}
		if got := l.hedgeTarget(lo, hi, r); got != wantID {
			tb.Fatalf("range [%d, %d) cut %d primary %d: hedgeTarget %d, reference scan %d",
				lo, hi, l.partCut, r.node, got, wantID)
		}
		if want == nil {
			c.empty++
		}
		if tied > 1 {
			c.tied++
		}
		if want != nil && l.partCut != 0 {
			c.split++
		}
		if p := int(r.node); p >= lo && p < hi && f.hedgeBars[p] == 0 {
			c.primaryInRange++
		}
	}
	for _, l := range f.domains {
		check(l, l.lo, l.lo+l.active)
	}
	check(f.domains[0], 0, f.active)
}

// TestHedgeTargetMatchesScan checks the flat argmin over committed
// work and hedge bars against the pointer scan it replaced, on
// generated scenes: the domain ranges and the fleet range, under
// partitions and with the primary anywhere, including ties, fully
// barred ranges, and budgets spent after the bar rebuild.
func TestHedgeTargetMatchesScan(t *testing.T) {
	var c hedgeSceneCounts
	for seed := int64(1); seed <= 3000; seed++ {
		f, r := hedgeScene(&laneScript{rng: rand.New(rand.NewSource(seed))})
		checkHedgeScene(t, f, r, &c)
	}
	if c.empty == 0 || c.tied == 0 || c.split == 0 || c.primaryInRange == 0 {
		t.Fatalf("the scenes exercised too little: %+v", c)
	}
}

// FuzzHedgeTarget runs TestHedgeTargetMatchesScan's scenes decoded
// from fuzz bytes.
func FuzzHedgeTarget(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			t.Skip()
		}
		fl, r := hedgeScene(&laneScript{data: data})
		checkHedgeScene(t, fl, r, &hedgeSceneCounts{})
	})
}

// barReasons counts the node-boundaries at which each hedge-bar
// condition held.
type barReasons struct {
	warming, down, draining, suspect, budget, breaker int
}

// assertPlacementArrays recounts every node's committed work (queue
// plus busy slots) and, when the fleet hedges, whether the reference
// eligibility bars it from hedge copies, and compares both with the
// flat arrays, tallying the bar conditions into seen.
func assertPlacementArrays(t *testing.T, f *Fleet, step int, seen *barReasons) {
	t.Helper()
	for i, v := range f.nodes {
		if want := v.queue.Len() + busySlots(v); int(f.committed[i]) != want {
			t.Fatalf("after Run(%d): node %d committed %d, recount %d", step, i, f.committed[i], want)
		}
		if !f.hedging {
			continue
		}
		l := f.domainOf(i)
		barred := !(v.warmLeft == 0 && l.eligible(v, i) && l.hedgeEligible(v))
		if (f.hedgeBars[i] != 0) != barred {
			t.Fatalf("after Run(%d): node %d hedge bar %d, reference barred %v", step, i, f.hedgeBars[i], barred)
		}
		seen.warming += min(v.warmLeft, 1)
		if v.down {
			seen.down++
		}
		if v.draining {
			seen.draining++
		}
		if f.suspect != nil && f.suspect[i] {
			seen.suspect++
		}
		if r := f.resil; r != nil && r.HedgeBudget > 0 && v.hedgeLeft <= 0 {
			seen.budget++
		}
		if v.breaker != nil && v.breaker.State() == resilience.BreakerOpen {
			seen.breaker++
		}
	}
}

// TestPlacementArraysExactAtBoundaries steps fleets one boundary at a
// time and checks the placement arrays against a recount at each stop:
// crash, slow, spot-revocation and partition faults, deadlines with
// retries, a hedge budget and breakers, autoscale down and back up with
// warm-up, and the predictive detector, at one and three domains, under
// hedging, predictive hedging and work stealing.
func TestPlacementArraysExactAtBoundaries(t *testing.T) {
	script := []faults.Event{
		{Interval: 2, Kind: faults.SlowStart, Node: 4, Factor: 0.2},
		{Interval: 3, Kind: faults.Crash, Node: 1},
		{Interval: 4, Kind: faults.RevokeNotice, Node: 9},
		{Interval: 5, Kind: faults.Recover, Node: 1},
		{Interval: 6, Kind: faults.Revoke, Node: 9},
		{Interval: 8, Kind: faults.PartitionStart, Node: -1, Cut: 5},
		{Interval: 11, Kind: faults.Restore, Node: 9},
		{Interval: 14, Kind: faults.PartitionEnd, Node: -1},
		{Interval: 16, Kind: faults.SlowEnd, Node: 4},
	}
	resil := &resilience.Options{
		MaxRetries:   2,
		Timeout:      1,
		Backoff:      resilience.Backoff{Base: 0.02, Cap: 0.2, Jitter: 0.2},
		Breaker:      &resilience.BreakerOptions{FailureThreshold: 0.3, MinSamples: 3, OpenIntervals: 4},
		CancelHedges: true,
		HedgeBudget:  1,
	}
	const horizon = 24
	var seen barReasons
	for _, m := range []Mitigation{Hedged{}, Predictive{}, WorkStealing{}} {
		for _, domains := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/domains=%d", m.Name(), domains), func(t *testing.T) {
				nodes, err := Uniform(12, platform.JunoR1(), workload.WebSearch())
				if err != nil {
					t.Fatal(err)
				}
				fl, err := New(Options{
					Nodes:      nodes,
					Pattern:    loadgen.Spike{Base: 0.6, Peak: 1.1, EverySecs: 6, SpikeSecs: 2},
					Mitigation: m,
					Domains:    domains,
					Seed:       19,
					Resilience: resil,
					Faults:     &faults.Options{Script: script},
					Autoscale: &AutoscaleOptions{
						MinNodes:           2,
						InitialNodes:       12,
						Policy:             phasedPolicy{full: 12, downAt: 6, upAt: 12},
						CooldownIntervals:  1,
						DownAfterIntervals: 1,
						WarmupIntervals:    2,
						WarmupFactor:       0.5,
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				var res Result
				for k := 1; k <= horizon; k++ {
					if res, err = fl.Run(float64(k)); err != nil {
						t.Fatal(err)
					}
					assertPlacementArrays(t, fl, k, &seen)
				}
				st := res.Stats
				if st.Crashes == 0 || st.Revocations == 0 || st.Partitions == 0 || st.SlowOnsets == 0 || st.Ups == 0 {
					t.Fatalf("a scripted event never fired: %+v", st)
				}
				if m.Name() != "work-stealing" && st.Hedges == 0 {
					t.Fatal("nothing was hedged")
				}
			})
		}
	}
	if seen.warming == 0 || seen.down == 0 || seen.draining == 0 || seen.suspect == 0 ||
		seen.budget == 0 || seen.breaker == 0 {
		t.Errorf("some bar condition never held at a boundary: %+v", seen)
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

// appendRecorder is the latency recorder the block recorder replaced,
// kept as its reference: one slice grown by append and decimated in
// place by keeping every 2nd kept element.
type appendRecorder struct {
	sample []float64
	stride int64
	seen   int64
	sum    float64
	limit  int
}

func (lr *appendRecorder) record(soj float64) {
	lr.seen++
	lr.sum += soj
	if lr.seen%lr.stride == 0 {
		lr.sample = append(lr.sample, soj)
		if len(lr.sample) >= lr.limit {
			half := len(lr.sample) / 2
			for i := 0; i < half; i++ {
				lr.sample[i] = lr.sample[2*i+1]
			}
			lr.sample = lr.sample[:half]
			lr.stride *= 2
		}
	}
}

// TestLatRecorderMatchesAppendRecorder feeds generated sojourn streams
// to the block recorder and the append recorder it replaced, with the
// decimation point below one block, at exactly one block, and spanning
// several blocks at a non-multiple of the block length. After every
// record the kept sample, stride, count and sum must be equal: lengths
// and the newest kept element are compared on every record, the whole
// sample after every decimation, so by induction the samples agree
// throughout. Interleaved result reads (appendSample) must return the
// reference's sample and leave the live one alone.
func TestLatRecorderMatchesAppendRecorder(t *testing.T) {
	limits := []int{1000, latBlockLen, 3*latBlockLen + 12345}
	for _, limit := range limits {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("limit=%d/seed=%d", limit, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				got := newLatRecorder()
				got.limit = limit
				want := appendRecorder{stride: 1, limit: limit}
				// Enough records for four decimations at the largest limit.
				records := 16 * limit
				for k := 0; k < records; k++ {
					soj := rng.ExpFloat64() * 1e-3
					stride := want.stride
					got.record(soj)
					want.record(soj)
					if got.n != len(want.sample) || got.stride != want.stride || got.seen != want.seen || got.sum != want.sum {
						t.Fatalf("record %d: n %d stride %d seen %d sum %v, want %d %d %d %v",
							k, got.n, got.stride, got.seen, got.sum, len(want.sample), want.stride, want.seen, want.sum)
					}
					if want.stride != stride {
						if s := got.appendSample(nil); !slices.Equal(s, want.sample) {
							t.Fatalf("record %d: decimated sample differs from the reference", k)
						}
					} else if n := got.n; n > 0 && got.blocks[(n-1)>>latBlockBits][(n-1)&latBlockMask] != want.sample[n-1] {
						t.Fatalf("record %d: newest kept element differs", k)
					}
					if k%(limit/3+1) == 0 {
						s := got.appendSample(make([]float64, 0, got.n))
						if !slices.Equal(s, want.sample) {
							t.Fatalf("record %d: result read differs from the reference", k)
						}
						// The result is the caller's: reordering it (as
						// selection does) leaves the live sample alone.
						slices.Reverse(s)
					}
				}
				if got.stride < 16 {
					t.Fatalf("stride %d after %d records: the sample decimated fewer than four times", got.stride, records)
				}
				if want := (limit-1)>>latBlockBits + 1; len(got.blocks) != want {
					t.Errorf("%d blocks for limit %d, want %d", len(got.blocks), limit, want)
				}
			})
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

// recordBytes is what the run's record costs to allocate: every trace
// at its capacity, the latency blocks (the first grown by doubling, as
// the recorder grows it, the rest allocated at full size), and
// result's one copy of the kept sample.
func recordBytes(f *Fleet) int {
	total := cap(f.fleet.Samples) * int(unsafe.Sizeof(telemetry.FleetSample{}))
	for _, n := range f.nodes {
		total += cap(n.trace.Samples) * int(unsafe.Sizeof(telemetry.Sample{}))
	}
	recs := []*latRecorder{&f.lat}
	for _, l := range f.domains {
		recs = append(recs, &l.lat)
	}
	for _, lr := range recs {
		total += 8 * lr.n
		for b, blk := range lr.blocks {
			if b > 0 {
				total += 8 * cap(blk)
				continue
			}
			for c := 0; c < cap(blk); {
				c = min(max(2*c, 256), latBlockLen)
				total += 8 * c
			}
		}
	}
	return total
}

// TestOneShotRunAllocatesItsRecord pins that a run's record costs one
// allocation of its final size: the latency sample fills its blocks
// without copying, and the traces are reserved for the horizon, so a
// one-shot run allocates at most 1.25 times its record. The Memcached
// fleet's sample spans 14 blocks and dominates its run; the other
// cost is each node's per-interval sojourn buffer, which grows once to
// an interval's completions. The many-interval Web-Search fleet's
// record is nearly all node traces. Growing the sample or the traces
// by append instead costs two to five times their final size. Byte
// counts from a race-detector build say nothing about the normal one,
// so the test skips there.
func TestOneShotRunAllocatesItsRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates differently")
	}
	cases := []struct {
		name    string
		wl      *workload.Model
		nodes   int
		load    float64
		horizon float64
		blocks  int
	}{
		{"memcached-sample", workload.Memcached(), 2, 0.6, 20, 10},
		{"websearch-traces", workload.WebSearch(), 16, 0.02, 2000, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nodes, err := Uniform(c.nodes, platform.JunoR1(), c.wl)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := New(Options{Nodes: nodes, Pattern: loadgen.Constant{Frac: c.load}, Workers: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := fl.Run(c.horizon); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := len(fl.domains[0].lat.blocks); got < c.blocks {
				t.Fatalf("the kept sample spans %d blocks, want at least %d", got, c.blocks)
			}
			alloc, record := after.TotalAlloc-before.TotalAlloc, recordBytes(fl)
			if float64(alloc) > 1.25*float64(record) {
				t.Errorf("the run allocated %d bytes for a %d-byte record (%.2fx), want at most 1.25x",
					alloc, record, float64(alloc)/float64(record))
			}
		})
	}
}
