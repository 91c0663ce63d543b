package clusterdes

import (
	"fmt"
	"math"
	"sort"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/federation"
	"hipster/internal/policy"
	"hipster/internal/sim"
	"hipster/internal/stats"
	"hipster/internal/telemetry"
)

// sharded runs the fleet DES as D routing domains — contiguous roster
// blocks, each with its own loop (event heap, request table, RNG
// streams derived from Seed+domain) — stepped in parallel on the
// persistent worker pool between interval boundaries. Everything that
// couples domains runs in the coordinator's serial section at the
// boundary, in a fixed order: reconcile cross-domain completion races,
// summarize, autoscale (with cross-domain migrations), place deferred
// hedge copies, boundary work-stealing kicks, and the next interval's
// routing refresh. Because each domain's interval is a pure function
// of its own state and the boundary section is serial, a run is a pure
// function of (Seed, Domains) at any worker count — the same
// parallel-pure-step/serial-merge decomposition the interval-mode
// cluster uses.
//
// With one domain the machinery degenerates exactly to the serial
// loop: domain 0's RNG streams are Seed+0 (the serial streams), its λ
// thinning multiplies by shareSum/shareSum == 1, cross-domain deferral
// is disabled, and every boundary step visits the same state in the
// same order as Fleet.tick — which is what AssertShardedEquivalence
// pins bit-exactly.
type sharded struct {
	f       *Fleet
	domains []*loop
	domOf   []int32 // node id -> domain index

	// Cached fan-out closure for the fleet's pool, so the per-interval
	// hot path does not allocate; boundaryT is the interval end it reads.
	stepFn    func(i int)
	boundaryT float64

	// Coordinator-side accumulators: latency and sojourns of requests
	// reconciled at boundaries (their race outcome is not attributable
	// to a single domain), and requests dropped or lost in coordinator
	// hands (cross-pair copies both destroyed).
	lat           latRecorder
	coordSojourns []float64
	coordDropped  int
	coordLost     int
	crossScratch  []crossEvent

	// stealCands is the boundary sweep's max-heap of steal victims,
	// rebuilt each tick; see boundaryKick.
	stealCands []stealCand
}

func newSharded(f *Fleet, dcount int) *sharded {
	starts := PartitionDomains(len(f.nodes), dcount)
	s := &sharded{
		f:     f,
		domOf: make([]int32, len(f.nodes)),
		lat:   newLatRecorder(),
	}
	for k := 0; k+1 < len(starts); k++ {
		lo, hi := starts[k], starts[k+1]
		l := &loop{
			id:          k,
			lo:          lo,
			nodes:       f.nodes[lo:hi],
			hedging:     f.hedging,
			stealing:    f.stealing,
			minDepth:    f.minDepth,
			hedgeWait:   math.Inf(1),
			suspectWait: math.Inf(1),
			suspect:     f.suspect,
			deferCross:  len(starts) > 2,
			resil:       f.resil,
			warmFactor:  f.warmFactor,
			arrRNG:      sim.SubRNG(f.opts.Seed+int64(k), "des-arrival"),
			routeRNG:    sim.SubRNG(f.opts.Seed+int64(k), "des-route"),
			svcRNG:      sim.SubRNG(f.opts.Seed+int64(k), "des-service"),
			retryRNG:    sim.SubRNG(f.opts.Seed+int64(k), "des-retry"),
			lat:         newLatRecorder(),
		}
		l.shares, l.cumShares = newShares(hi - lo)
		for i := lo; i < hi; i++ {
			s.domOf[i] = int32(k)
		}
		s.domains = append(s.domains, l)
	}
	s.stepFn = func(i int) { s.domains[i].runInterval(s.boundaryT) }
	s.updateActive()
	return s
}

func (s *sharded) domainOf(id int) *loop { return s.domains[s.domOf[id]] }

// updateActive pushes the fleet-wide active count down into the
// domains. The active set is a roster prefix and domains are
// contiguous roster blocks, so each domain's active set is a prefix of
// its own slice.
func (s *sharded) updateActive() {
	for _, l := range s.domains {
		a := s.f.active - l.lo
		if a < 0 {
			a = 0
		}
		if a > len(l.nodes) {
			a = len(l.nodes)
		}
		l.active = a
		l.rosterActive = s.f.active
	}
}

// run is the sharded counterpart of Fleet.Run's loop: step every
// domain to the boundary in parallel, then the serial boundary tick.
func (s *sharded) run(horizon float64) error {
	f := s.f
	if f.clock.Steps() == 0 && f.fleet.Len() == 0 {
		for _, l := range s.domains {
			l.nextArrival = math.Inf(1)
		}
		if err := s.refreshInterval(0); err != nil {
			return err
		}
	}
	for f.clock.Now() < horizon {
		s.boundaryT = f.clock.Now() + f.dt
		f.pool.Do(len(s.domains), s.stepFn)
		if err := s.tick(s.boundaryT); err != nil {
			return err
		}
	}
	return nil
}

// tick is the coordinator's serial boundary section — the sharded
// mirror of Fleet.tick, with the cross-domain exchanges spliced in at
// the only points they can happen deterministically.
func (s *sharded) tick(tEnd float64) error {
	f := s.f
	winsNow := s.reconcile(tEnd)
	warming := 0
	for _, n := range f.nodes[:f.active] {
		if n.warmLeft > 0 {
			warming++
		}
	}
	f.summarize(tEnd)
	// The learning step mirrors the serial loop exactly: strictly
	// serial, ascending node id, after every domain's summaries are
	// final and before the fleet merge — the same boundary slot where
	// cross-domain exchanges and federation already run, so Domains=1
	// stays bit-identical to the serial loop with learning on.
	if err := f.learnStep(tEnd); err != nil {
		return err
	}
	f.rollResilience()

	fs := f.merger.MergeInterval(f.samples[:f.active], f.opts.StragglerFactor)
	fs.T = tEnd
	var energy float64
	for _, n := range f.nodes {
		energy += n.lastEnergyJ
	}
	fs.EnergyJ = energy
	hedges, wins, steals, prim := 0, winsNow, 0, 0
	retries, timeouts, rateLim, hCancels := 0, 0, 0, 0
	for _, l := range s.domains {
		hedges += l.hedges
		wins += l.hedgeWins
		steals += l.steals
		prim += l.primaries
		retries += l.retries
		timeouts += l.timeouts
		rateLim += l.rateLimited
		hCancels += l.hedgeCancels
	}
	fs.Hedges = hedges
	fs.HedgeWins = wins
	fs.Steals = steals
	fs.Warming = warming
	fs.Retries = retries
	fs.Timeouts = timeouts
	fs.BreakerOpens = f.breakerOpens
	fs.RateLimited = rateLim
	fs.HedgeCancels = hCancels
	f.annotateLearn(&fs)
	lostTot := s.coordLost
	for _, l := range s.domains {
		lostTot += l.lost
	}
	f.annotateFaults(&fs, lostTot-f.prevLost)
	f.prevLost = lostTot
	f.fleet.Add(fs)
	f.stats.Hedges += hedges
	f.stats.HedgeWins += wins
	f.stats.Steals += steals
	f.stats.WarmupIntervals += warming
	f.stats.NodeIntervals += f.active
	f.harvestResilience(retries, timeouts, rateLim, hCancels)

	// Hedge delay for the next interval: the configured quantile over
	// the whole fleet's sojourns — every domain hedges off the same
	// fleet-wide estimate, exactly like the serial loop.
	if f.hedging {
		f.selScratch = f.selScratch[:0]
		for _, l := range s.domains {
			f.selScratch = append(f.selScratch, l.intervalSojourns...)
		}
		f.selScratch = append(f.selScratch, s.coordSojourns...)
		if len(f.selScratch) > 0 {
			if q, err := stats.SelectPercentile(f.selScratch, f.hedgeQ); err == nil {
				for _, l := range s.domains {
					l.hedgeWait = q
				}
			}
		}
	}
	measuredRPS := float64(prim) / f.dt
	f.stats.Requests += prim
	for _, l := range s.domains {
		l.intervalSojourns = l.intervalSojourns[:0]
		l.hedges, l.hedgeWins, l.steals, l.primaries = 0, 0, 0, 0
		l.retries, l.timeouts, l.rateLimited, l.hedgeCancels = 0, 0, 0, 0
	}
	s.coordSojourns = s.coordSojourns[:0]

	for _, n := range f.nodes[:f.active] {
		if n.warmLeft > 0 {
			n.warmLeft--
		}
	}

	f.clock.Tick()
	t := f.clock.Now()
	for _, l := range s.domains {
		l.tickEnd = t + f.dt
	}
	// Fault transitions and the predictive detector run in the same
	// serial-section slot as the serial loop's, before federation and
	// autoscale — Domains=1 stays bit-identical with faults on.
	if err := f.faultStep(t); err != nil {
		return err
	}
	f.detectStep(t)
	// Federation mirrors the serial loop: a boundary sync round in the
	// coordinator's serial section, with every domain quiescent. A
	// partition heal forces an extra round so deltas flush immediately.
	if f.fed != nil && (f.fed.Due(f.clock.Steps()) || f.healPending) {
		if err := f.fed.Sync(f.clock.Steps(), f.isActiveFn); err != nil {
			return err
		}
		f.stats.SyncRounds++
	}
	f.healPending = false
	if f.ctl != nil {
		if err := s.autoscaleStep(t, measuredRPS); err != nil {
			return err
		}
	}
	s.placeHedges(t)
	s.boundaryKick(t)
	return s.refreshInterval(t)
}

// reconcile decides every cross-domain race of the interval that just
// ended. Events are keyed by the pair's origin entry and ordered
// deterministically (event time; on a tie completions beat timeouts and
// the primary beats the mirror); the first event of a still-open pair
// decides it and both entries retire their pair links. A completion is
// recorded on the completing node, into the interval just closed; a
// deadline expiry abandons both copies — services still running are
// cancelled at the boundary tEnd, the only moment a cross-domain slot
// can be reclaimed — and the request retries in its origin domain or
// counts timed out there. With hedge cancellation on, a decided
// completion also reclaims the losing copy's server at tEnd. It
// returns the number of races won by the mirror (hedge) copy.
func (s *sharded) reconcile(tEnd float64) int {
	s.crossScratch = s.crossScratch[:0]
	for _, l := range s.domains {
		s.crossScratch = append(s.crossScratch, l.crossDone...)
		l.crossDone = l.crossDone[:0]
	}
	if len(s.crossScratch) == 0 {
		return 0
	}
	f := s.f
	evs := s.crossScratch
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.dom != b.dom {
			return a.dom < b.dom
		}
		if a.id != b.id {
			return a.id < b.id
		}
		if a.t != b.t {
			return a.t < b.t
		}
		if a.timeout != b.timeout {
			return !a.timeout // a completion at the deadline still counts
		}
		return !a.mirror && b.mirror
	})
	wins := 0
	for _, ev := range evs {
		origin := s.domains[ev.dom]
		r := &origin.reqs[ev.id]
		if r.done {
			continue // race already decided; this is the losing copy
		}
		partner := s.domains[r.crossDom]
		pref := r.crossRef
		pr := &partner.reqs[pref]
		arrival, attempts, pnode, mnode := r.arrival, r.attempts, r.node, pr.node
		r.done = true
		pr.done = true
		if ev.timeout {
			origin.timeouts++
			if pn := origin.node(pnode); pn.breaker != nil {
				pn.breaker.Record(false)
			}
			origin.cancelCopy(origin.node(pnode), ev.id, tEnd)
			partner.cancelCopy(partner.node(mnode), pref, tEnd)
			if int(attempts) < f.resil.MaxRetries {
				// Respawn in the origin domain; the backoff runs from the
				// expiry but the retry cannot fire before the boundary
				// that made the expiry visible.
				nid := origin.alloc(arrival, -1)
				nr := &origin.reqs[nid]
				nr.attempts = attempts + 1
				nr.refs++
				origin.retries++
				rt := ev.t + f.resil.Backoff.Delay(int(attempts), origin.retryRNG.Float64())
				if rt < tEnd {
					rt = tEnd
				}
				origin.events.Push(rt, event{kind: evRetry, a: nid})
			} else {
				origin.timedOut++
			}
		} else {
			soj := ev.t - arrival
			n := f.nodes[ev.node]
			n.completed++
			n.sojourns = append(n.sojourns, soj)
			s.coordSojourns = append(s.coordSojourns, soj)
			s.lat.record(soj)
			if n.breaker != nil {
				n.breaker.Record(true)
			}
			if ev.mirror {
				wins++
			}
			if f.resil != nil && f.resil.CancelHedges {
				if ev.mirror {
					if origin.cancelCopy(origin.node(pnode), ev.id, tEnd) {
						origin.hedgeCancels++
					}
				} else if partner.cancelCopy(partner.node(mnode), pref, tEnd) {
					partner.hedgeCancels++
				}
			}
		}
		origin.release(ev.id)
		partner.release(pref)
	}
	return wins
}

// placeHedges drains every domain's deferred-hedge outbox: re-issues
// that found no in-domain target get the fleet-wide least-committed
// node. A same-domain placement is an ordinary hedge dispatch; a
// cross-domain one allocates a mirror entry in the target domain and
// links the pair, deferring the completion race to reconcile. Counted
// hedges land in the interval that begins now, matching the serial
// loop's counter timing for boundary-issued work.
func (s *sharded) placeHedges(t float64) {
	f := s.f
	for _, l := range s.domains {
		for _, id := range l.deferredHedges {
			r := &l.reqs[id]
			if r.done || r.hedgeNode != -1 {
				l.finishHedgeRef(id)
				continue
			}
			var target *desNode
			bestLoad := 0
			for _, v := range f.nodes[:f.active] {
				if !l.hedgeTargetOK(v, r) {
					continue
				}
				load := v.queue.Len() + v.busyCount
				if target == nil || load < bestLoad {
					target, bestLoad = v, load
				}
			}
			if target == nil {
				l.finishHedgeRef(id)
				continue
			}
			tl := s.domainOf(target.id)
			r.hedgeNode = int32(target.id)
			if tl == l {
				if l.dispatch(target, id, t) {
					target.arrived++
					l.hedges++
					l.spendHedgeBudget(target)
				}
				l.finishHedgeRef(id)
				continue
			}
			nid := tl.alloc(r.arrival, int32(target.id))
			if !tl.dispatch(target, nid, t) {
				// Target queue full: no copy placed. hedgeNode stays set
				// (it names a node outside this domain, so it can never
				// claim a win) and the primary copy carries the request.
				tl.reqs[nid].done = true
				tl.free = append(tl.free, nid)
				l.finishHedgeRef(id)
				continue
			}
			m := &tl.reqs[nid]
			m.mirror, m.deferRec = true, true
			m.crossDom, m.crossRef = int32(l.id), id
			m.refs++ // pair link
			r.deferRec = true
			r.hedgeNode = hedgeCross
			r.crossDom, r.crossRef = int32(tl.id), nid
			r.refs++ // pair link, replacing the timer ref released below
			target.arrived++
			l.hedges++
			l.spendHedgeBudget(target)
			f.stats.CrossDomainHedges++
			l.release(id)
		}
		l.deferredHedges = l.deferredHedges[:0]
	}
}

// finishHedgeRef releases a parked hedge-timer reference and recycles
// a request left with no live copy — the outbox mirror of
// handleHedge's tail.
func (l *loop) finishHedgeRef(id int32) {
	r := &l.reqs[id]
	l.release(id)
	if r.refs == 0 && !r.done {
		r.done = true
		l.dropped++
		l.free = append(l.free, id)
	}
}

// boundaryKick is the sharded version of the serial tick's idle-server
// sweep, with the steal scope widened back to the whole fleet: an idle
// node may rescue a drowning peer in another domain, which is the only
// moment steals cross a domain boundary.
//
// Every idle server of the fleet pulls in turn during the sweep, so a
// linear scan for the deepest queue on each pull (what loop.steal does
// inside one domain once any queue there is deep enough) would cost
// O(fleet) per pull. Queues only shrink while the sweep runs (arrivals
// are mid-interval, hedge placement happened before the kick), so the
// victim choice can come from a max-heap of queue depths built once per
// boundary and lazily refreshed — the same argmax the scan computes, in
// O(log n) per steal.
func (s *sharded) boundaryKick(t float64) {
	f := s.f
	// Under a partition the heap cannot encode sides, so thieves fall
	// back to a per-pull linear scan (stealBestFor); the heap stays
	// empty and its refresh calls become no-ops.
	s.stealCands = s.stealCands[:0]
	if f.stealing && f.loop.partCut == 0 {
		for _, v := range f.nodes[:f.active] {
			// Down nodes have empty queues; draining ones are excluded
			// as victims, matching the serial steal filter.
			if v.draining {
				continue
			}
			if v.queue.Len() >= f.minDepth {
				s.stealCands = append(s.stealCands, stealCand{depth: v.queue.Len(), id: v.id})
			}
		}
		for i := len(s.stealCands)/2 - 1; i >= 0; i-- {
			s.stealSiftDown(i)
		}
	}
	for _, n := range f.nodes[:f.active] {
		if n.down {
			continue
		}
		if n.warmLeft == 0 || f.warmFactor > 0 {
			s.kickIdleFleet(n, t)
		}
	}
}

// stealBestFor is the partition-aware victim scan: the serial steal's
// linear argmax over the whole active roster, restricted to the
// thief's side. Only used while a partition is active.
func (s *sharded) stealBestFor(n *desNode) int {
	f := s.f
	best, depth := -1, f.minDepth-1
	for _, v := range f.nodes[:f.active] {
		if v == n || v.down || v.draining || !f.sameSide(v.id, n.id) {
			continue
		}
		if v.queue.Len() > depth {
			depth = v.queue.Len()
			best = v.id
		}
	}
	return best
}

// stealCand is one boundary steal candidate: a node and the queue
// depth recorded for it. Recorded depths are upper bounds — stealBest
// refreshes them against the live queue before trusting the top.
type stealCand struct {
	depth, id int
}

// stealRank reports whether candidate i outranks candidate j: deeper
// queue first, then smaller node id — exactly the strict-> scan order
// of the serial loop's steal, so ties resolve to the same victim.
func (s *sharded) stealRank(i, j int) bool {
	a, b := s.stealCands[i], s.stealCands[j]
	return a.depth > b.depth || (a.depth == b.depth && a.id < b.id)
}

func (s *sharded) stealSiftDown(i int) {
	for {
		left, right := 2*i+1, 2*i+2
		best := i
		if left < len(s.stealCands) && s.stealRank(left, best) {
			best = left
		}
		if right < len(s.stealCands) && s.stealRank(right, best) {
			best = right
		}
		if best == i {
			return
		}
		s.stealCands[best], s.stealCands[i] = s.stealCands[i], s.stealCands[best]
		i = best
	}
}

func (s *sharded) stealPopTop() {
	last := len(s.stealCands) - 1
	s.stealCands[0] = s.stealCands[last]
	s.stealCands = s.stealCands[:last]
	if last > 0 {
		s.stealSiftDown(0)
	}
}

// stealBest returns the node the serial scan would steal from — the
// deepest queue of at least minDepth, smallest id on ties — or -1.
// The winning entry stays at the heap root; the caller must call
// stealRefreshTop after mutating that node's queue.
func (s *sharded) stealBest() int {
	f := s.f
	for len(s.stealCands) > 0 {
		top := &s.stealCands[0]
		cur := f.nodes[top.id].queue.Len()
		if cur == top.depth {
			return top.id
		}
		if cur >= f.minDepth {
			// Stale depth: refresh in place. A root whose key only
			// changed keeps the heap valid after one sift-down.
			top.depth = cur
			s.stealSiftDown(0)
		} else {
			s.stealPopTop()
		}
	}
	return -1
}

// stealRefreshTop re-keys the root candidate from its live queue after
// a steal attempt, dropping it once it is too shallow to rob.
func (s *sharded) stealRefreshTop() {
	if len(s.stealCands) == 0 {
		return
	}
	top := &s.stealCands[0]
	cur := s.f.nodes[top.id].queue.Len()
	if cur >= s.f.minDepth {
		top.depth = cur
		s.stealSiftDown(0)
	} else {
		s.stealPopTop()
	}
}

func (s *sharded) kickIdleFleet(n *desNode, t float64) {
	l := s.domainOf(n.id)
	for sv := range n.idle {
		if !n.idle[sv] || !n.enabled[sv] {
			continue
		}
		s.pullWorkFleet(l, n, sv, t)
		if n.idle[sv] {
			break // nothing left to pull; further servers won't find work either
		}
	}
}

// pullWorkFleet is loop.pullWork with the steal scan ranging over the
// whole active roster. A cross-domain steal moves the request between
// request tables: stolen requests go straight to service, so the
// victim's entry is unreferenced and retires as the thief's domain
// allocates its own.
func (s *sharded) pullWorkFleet(l *loop, n *desNode, sv int, t float64) {
	f := s.f
	// A draining node still serves its own residual queue but never
	// steals; a down node serves nothing (see pullWork).
	serving := n.enabled[sv] && n.id < f.active && !n.down &&
		(n.warmLeft == 0 || l.warmFactor > 0)
	if serving {
		if id := l.popLocal(n); id >= 0 {
			l.startService(n, sv, id, t)
			return
		}
		if l.stealing && n.warmLeft == 0 && !n.draining {
			// The thief never appears among the candidates: its local
			// queue just drained (popLocal above returned -1) and
			// minDepth >= 1, matching the serial scan's self-exclusion.
			best := -1
			if f.loop.partCut != 0 {
				best = s.stealBestFor(n)
			} else {
				best = s.stealBest()
			}
			if best >= 0 {
				vl := s.domainOf(best)
				if id := vl.popLocal(f.nodes[best]); id >= 0 {
					if vl == l {
						l.steals++
						// Track the copy to the thief (see pullWork).
						vl.reqs[id].node = int32(n.id)
						s.stealRefreshTop()
						l.startService(n, sv, id, t)
						return
					}
					r := &vl.reqs[id]
					if r.refs == 0 && !r.deferRec {
						nid := l.alloc(r.arrival, int32(n.id))
						l.reqs[nid].hedgeNode = r.hedgeNode
						r.done = true
						vl.free = append(vl.free, id)
						l.steals++
						f.stats.CrossDomainSteals++
						s.stealRefreshTop()
						l.startService(n, sv, nid, t)
						return
					}
					// A referenced id cannot move tables (the victim
					// domain's pending deadline timer would dangle), so
					// put the entry back rather than lose it. Without
					// resilience this is unreachable — extra references
					// come only from hedging, which excludes stealing.
					vl.enqueue(f.nodes[best], id)
					r.refs++
				}
				s.stealRefreshTop()
			}
		}
	}
	n.idle[sv] = true
}

// autoscaleStep is the sharded mirror of Fleet.autoscaleStep. The
// decision and activation sides are identical; the deactivation side
// must drain queues across domain boundaries, which splits into three
// cases in migrate.
func (s *sharded) autoscaleStep(t, measuredRPS float64) error {
	f := s.f
	for i, n := range f.nodes {
		f.roster[i] = autoscale.NodeInfo{
			ID:              i,
			CapacityRPS:     n.nominalCap,
			Active:          n.state.Active && !n.down,
			Stepped:         n.state.Stepped,
			LastOfferedRPS:  n.state.LastOfferedRPS,
			LastTailLatency: n.state.LastTailLatency,
			LastTarget:      n.state.LastTarget,
			LastQueueDepth:  float64(n.queue.Len()),
		}
	}
	d := f.ctl.Decide(autoscale.Context{
		Interval:   f.clock.Steps(),
		T:          t,
		OfferedRPS: measuredRPS,
		Nodes:      f.roster,
		Active:     f.active,
	})
	if !d.Scaled {
		return nil
	}
	if d.Target > f.active {
		// One fleet-table copy serves every activation of this event.
		var bc federation.Broadcast
		for id := f.active; id < d.Target; id++ {
			n := f.nodes[id]
			if f.fed != nil {
				warmed, err := f.fed.WarmStart(id, f.clock.Steps(), &bc)
				if err != nil {
					return fmt.Errorf("clusterdes: autoscale warm-start of node %d: %w", id, err)
				}
				if warmed {
					f.stats.WarmStarts++
				}
			}
			n.state.Active = true
			n.warmLeft = f.warmupIvs
			n.arrived, n.completed = 0, 0
			n.sojourns = n.sojourns[:0]
			for i := range n.busy {
				n.busy[i] = 0
			}
		}
		if f.stats.FirstScaleUpInterval < 0 {
			f.stats.FirstScaleUpInterval = f.clock.Steps()
		}
		f.stats.Ups++
		f.stats.NodesAdded += d.Target - f.active
	} else {
		oldActive := f.active
		f.active = d.Target // shrink first so migrations only target survivors
		f.rosterActive = d.Target
		s.updateActive()
		for id := d.Target; id < oldActive; id++ {
			n := f.nodes[id]
			if f.fed != nil {
				flushed, err := f.fed.Flush(id, f.clock.Steps())
				if err != nil {
					return fmt.Errorf("clusterdes: autoscale flush of node %d: %w", id, err)
				}
				if flushed {
					f.stats.Flushes++
				}
			}
			// Cut the dormant node's TD chain, exactly like the serial
			// loop.
			if ep, ok := n.pol.(policy.Episodic); ok {
				ep.EndEpisode()
			}
			victim := s.domainOf(n.id)
			n.state.Active = false
			n.warmLeft = 0
			for {
				id2 := victim.popLocal(n)
				if id2 < 0 {
					break
				}
				s.migrate(victim, n, id2, t, false)
			}
			n.state.Stepped = false
			n.state.LastOfferedRPS = 0
			n.state.LastAchievedRPS = 0
			n.state.LastBacklog = 0
			n.state.LastTailLatency = 0
			n.state.LastTarget = 0
		}
		f.stats.Downs++
		f.stats.NodesRemoved += oldActive - d.Target
	}
	f.active = d.Target
	f.rosterActive = d.Target
	s.updateActive()
	if f.active > f.stats.PeakActive {
		f.stats.PeakActive = f.active
	}
	if f.active < f.stats.MinActive {
		f.stats.MinActive = f.active
	}
	return nil
}

// migrate re-homes one request popped off a deactivating node's queue.
// Same-domain placements follow the serial loop's bookkeeping exactly.
// An unreferenced request crossing domains moves tables (a fresh entry
// in the target domain retires the victim's). A request still
// referenced inside its domain — a pending hedge timer, a second
// serving copy, or a cross-pair link — cannot move tables, so it
// re-dispatches within its own domain's survivors; with none left, a
// cross-pair copy is marked gone, and when both copies of a pair are
// gone the request is counted lost.
func (s *sharded) migrate(victim *loop, n *desNode, id2 int32, t float64, pred bool) {
	f := s.f
	r := &victim.reqs[id2]
	count := func() {
		if pred {
			f.stats.PredMigrations++
		} else {
			f.stats.Migrated++
		}
	}
	var target *desNode
	for _, v := range f.nodes[:f.active] {
		if v == n || !f.eligibleTarget(v, n.id) {
			continue
		}
		if target == nil || v.queue.Len()+v.busyCount < target.queue.Len()+target.busyCount {
			target = v
		}
	}
	if target == nil {
		// No eligible survivor anywhere (drainQueueAny pre-checks, so
		// only autoscale's drain can land here): the copy is dropped
		// unless another reference still resolves the request.
		if r.refs == 0 && !r.deferRec {
			r.done = true
			victim.free = append(victim.free, id2)
			victim.dropped++
		} else if r.deferRec {
			r.copyGone = true
			pl := s.domains[r.crossDom]
			pr := &pl.reqs[r.crossRef]
			if pr.copyGone && !r.done {
				r.done, pr.done = true, true
				s.coordDropped++
				victim.release(id2)
				pl.release(r.crossRef)
			}
		}
		return
	}
	tl := s.domainOf(target.id)
	if tl == victim {
		if victim.dispatch(target, id2, t) {
			if int32(n.id) == r.node {
				r.node = int32(target.id)
				if r.hedgeNode == r.node {
					r.hedgeNode = hedgeVoid
				}
			} else if r.hedgeNode == int32(n.id) {
				if int32(target.id) == r.node {
					r.hedgeNode = hedgeVoid
				} else {
					r.hedgeNode = int32(target.id)
				}
			}
			count()
		} else if r.refs == 0 {
			r.done = true
			victim.free = append(victim.free, id2)
			victim.dropped++
		}
		return
	}
	if r.refs == 0 && !r.deferRec {
		// The queue slot was the only reference, so the request itself
		// can move tables. (refs == 0 rules out a live hedge copy or
		// timer, so the popped copy is the primary.)
		if int32(n.id) == r.node {
			r.node = int32(target.id)
		}
		nid := tl.alloc(r.arrival, r.node)
		tl.reqs[nid].hedgeNode = r.hedgeNode
		r.done = true
		victim.free = append(victim.free, id2)
		if tl.dispatch(target, nid, t) {
			count()
			f.stats.CrossDomainMigrations++
		} else {
			tl.reqs[nid].done = true
			tl.free = append(tl.free, nid)
			s.coordDropped++
		}
		return
	}
	// Referenced inside its own domain: re-dispatch among the domain's
	// surviving eligible actives.
	var vt *desNode
	for _, v := range victim.nodes[:victim.active] {
		if v == n || !f.eligibleTarget(v, n.id) {
			continue
		}
		if vt == nil || v.queue.Len()+v.busyCount < vt.queue.Len()+vt.busyCount {
			vt = v
		}
	}
	if vt != nil {
		if victim.dispatch(vt, id2, t) {
			if int32(n.id) == r.node {
				r.node = int32(vt.id)
				if r.hedgeNode == r.node {
					r.hedgeNode = hedgeVoid
				}
			} else if r.hedgeNode == int32(n.id) {
				if int32(vt.id) == r.node {
					r.hedgeNode = hedgeVoid
				} else {
					r.hedgeNode = int32(vt.id)
				}
			}
			count()
		}
		// On a full queue with refs > 0, another copy or the pending
		// hedge timer still completes or re-issues it — leave alive.
		return
	}
	if r.deferRec {
		r.copyGone = true
		pl := s.domains[r.crossDom]
		pr := &pl.reqs[r.crossRef]
		if pr.copyGone && !r.done {
			r.done, pr.done = true, true
			s.coordDropped++
			victim.release(id2)
			pl.release(r.crossRef)
		}
	}
	// refs > 0 without a pair link: a hedge timer or second copy in
	// this domain still owns the request — leave alive.
}

// refreshInterval is the sharded routing refresh: one fleet-wide
// splitter call in roster order (identical to the serial loop's), then
// per-domain λ thinning — each domain's arrival rate is the fleet rate
// scaled by its share of the routing weight, so the fleet-wide arrival
// process is preserved in expectation while every draw stays inside
// one domain's RNG stream.
func (s *sharded) refreshInterval(t float64) error {
	f := s.f
	lambda := f.opts.Pattern.LoadAt(t) * f.fleetCap
	if lambda < 0 {
		return fmt.Errorf("clusterdes: pattern returned negative load at t=%v", t)
	}
	fleetServing := 0
	for _, l := range s.domains {
		l.servingN = 0
	}
	for _, n := range f.nodes[:f.active] {
		if !n.down && !n.draining {
			s.domainOf(n.id).servingN++
			fleetServing++
		}
	}
	if fleetServing == 0 {
		// Blackout, exactly like the serial refresh: no arrivals while
		// every active node is down or draining.
		lambda = 0
	}
	for i, n := range f.nodes[:f.active] {
		f.states[i] = n.state
	}
	shares := f.splitter.Split(cluster.SplitContext{
		Interval: f.clock.Steps(),
		T:        t,
		TotalRPS: lambda,
		Nodes:    f.states[:f.active],
	})
	if len(shares) != f.active {
		return fmt.Errorf("clusterdes: splitter %q returned %d shares for %d active nodes",
			f.splitter.Name(), len(shares), f.active)
	}
	var fleetSum float64
	for i, sh := range shares {
		if sh < 0 {
			return fmt.Errorf("clusterdes: splitter %q returned negative share %v for node %d",
				f.splitter.Name(), sh, i)
		}
		// Down and draining nodes take no new primaries; zero their
		// weight without mutating the splitter's slice (see the serial
		// refresh).
		if v := f.nodes[i]; !v.down && !v.draining {
			fleetSum += sh
		}
	}
	for _, l := range s.domains {
		if l.active == 0 {
			// A domain with no active nodes generates nothing; a pending
			// arrival from its active era is void.
			l.lambda, l.shareSum = 0, 0
			l.nextArrival = math.Inf(1)
			continue
		}
		l.shareSum = 0
		for i := 0; i < l.active; i++ {
			sh := shares[l.lo+i]
			if v := l.nodes[i]; v.down || v.draining {
				sh = 0
			}
			l.setShare(i, sh)
		}
		switch {
		case fleetSum > 0:
			// For a single domain shareSum == fleetSum, so the ratio is
			// exactly 1.0 and λ survives bit-identical.
			l.lambda = lambda * (l.shareSum / fleetSum)
		case fleetServing > 0:
			// Zero routing weight everywhere: the serial loop falls back
			// to round-robin over serving nodes; thin by serving share.
			l.lambda = lambda * float64(l.servingN) / float64(fleetServing)
		default:
			l.lambda = 0
		}
		if l.lambda > 0 && math.IsInf(l.nextArrival, 1) {
			l.nextArrival = t + l.arrRNG.ExpFloat64()/l.lambda
		}
	}
	return nil
}

// result assembles the sharded run's record: the shared fleet trace
// and stats, plus the latency record merged across domain recorders
// and the coordinator's (counts and sums add exactly; the systematic
// samples concatenate into a fresh slice, which selection reorders).
func (s *sharded) result() Result {
	f := s.f
	res := Result{
		Fleet: f.fleet,
		Nodes: make([]*telemetry.Trace, len(f.nodes)),
		Stats: f.stats,
	}
	for i, n := range f.nodes {
		res.Nodes[i] = n.trace
	}
	var seen int64
	var sum float64
	dropped := s.coordDropped
	timedOut := 0
	lost := s.coordLost
	total := len(s.lat.sample)
	for _, l := range s.domains {
		total += len(l.lat.sample)
	}
	sample := make([]float64, 0, total)
	for _, l := range s.domains {
		seen += l.lat.seen
		sum += l.lat.sum
		dropped += l.dropped
		timedOut += l.timedOut
		lost += l.lost
		sample = append(sample, l.lat.sample...)
	}
	seen += s.lat.seen
	sum += s.lat.sum
	sample = append(sample, s.lat.sample...)
	res.Latency.Completed = int(seen)
	res.Latency.Dropped = dropped
	res.Latency.TimedOut = timedOut
	res.Latency.Lost = lost
	res.Stats.Lost = lost
	res.Latency.fill(sample, seen, sum)
	return res
}
