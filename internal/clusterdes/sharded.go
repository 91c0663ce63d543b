package clusterdes

// The cross-domain exchange: everything that moves a request between
// routing domains runs here, in the coordinator's serial section at an
// interval boundary, because only there are every domain's queues and
// completions visible at once. With one domain none of it ever crosses
// a boundary — there is no other domain to race, place, steal or
// migrate into — and each step reduces to its in-domain case.

import "sort"

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
func (f *Fleet) reconcile(tEnd float64) int {
	f.crossScratch = f.crossScratch[:0]
	for _, l := range f.domains {
		f.crossScratch = append(f.crossScratch, l.crossDone...)
		l.crossDone = l.crossDone[:0]
	}
	if len(f.crossScratch) == 0 {
		return 0
	}
	evs := f.crossScratch
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
		origin := f.domains[ev.dom]
		r := &origin.reqs[ev.id]
		if r.done {
			continue // race already decided; this is the losing copy
		}
		partner := f.domains[r.crossDom]
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
				origin.events.heap.Push(rt, event{kind: evRetry, a: nid})
			} else {
				origin.timedOut++
			}
		} else {
			soj := ev.t - arrival
			n := f.nodes[ev.node]
			n.completed++
			n.sojourns = append(n.sojourns, soj)
			f.coordSojourns = append(f.coordSojourns, soj)
			f.lat.record(soj)
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

// placeHedges first rebuilds every node's hedge bar for the interval
// that begins now (see rebuildHedgeBars), then drains every domain's
// deferred-hedge outbox: re-issues that found no in-domain target get
// the fleet-wide least-committed node. A same-domain placement is an
// ordinary hedge dispatch; a cross-domain one allocates a mirror entry
// in the target domain and links the pair, deferring the completion
// race to reconcile. Counted hedges land in the interval that begins
// now, like all work issued at a boundary.
func (f *Fleet) placeHedges(t float64) {
	if !f.hedging {
		return
	}
	f.rebuildHedgeBars()
	for _, l := range f.domains {
		for _, id := range l.deferredHedges {
			r := &l.reqs[id]
			if r.done || r.hedgeNode != -1 {
				l.finishHedgeRef(id)
				continue
			}
			ti := l.hedgeTarget(0, f.active, r)
			if ti < 0 {
				l.finishHedgeRef(id)
				continue
			}
			target := f.nodes[ti]
			tl := f.domainOf(ti)
			if tl == l {
				l.issueHedge(target, id, t)
				l.finishHedgeRef(id)
				continue
			}
			r.hedgeNode = int32(target.id)
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

// boundaryKick lets idle servers pick up queues outside the completion
// path: warm-up expiries (the queue built while every server sat idle),
// freshly migrated requests and, with stealing on, fully idle nodes —
// which see no completion events — rescuing a drowning peer. Down nodes
// serve nothing; draining nodes still work their own residual queue.
// The steal scope is the whole fleet: an idle node may rescue a peer in
// another domain, which is the only moment steals cross a domain
// boundary.
//
// Every idle server of the fleet pulls in turn during the sweep, so a
// linear scan for the deepest queue on each pull (what loop.steal does
// inside one domain once any queue there is deep enough) would cost
// O(fleet) per pull. Queues only shrink while the sweep runs (arrivals
// are mid-interval, hedge placement happened before the kick), so the
// victim choice can come from a max-heap of queue depths built once per
// boundary and lazily refreshed — the same argmax the scan computes, in
// O(log n) per steal.
func (f *Fleet) boundaryKick(t float64) {
	// Under a partition the heap cannot encode sides, so thieves fall
	// back to a per-pull linear scan (loop.deepest over the fleet); the
	// heap stays empty and its refresh calls become no-ops.
	f.stealCands = f.stealCands[:0]
	if f.stealing && f.partCut() == 0 {
		for _, v := range f.nodes[:f.active] {
			// Down nodes have empty queues; draining ones are excluded
			// as victims, matching loop.steal's filter.
			if v.draining {
				continue
			}
			if v.queue.Len() >= f.minDepth {
				f.stealCands = append(f.stealCands, stealCand{depth: v.queue.Len(), id: v.id})
			}
		}
		for i := len(f.stealCands)/2 - 1; i >= 0; i-- {
			f.stealSiftDown(i)
		}
	}
	for _, n := range f.nodes[:f.active] {
		if n.down {
			continue
		}
		if n.warmLeft == 0 || f.warmFactor > 0 {
			f.kickIdleFleet(n, t)
		}
	}
}

// stealCand is one boundary steal candidate: a node and the queue
// depth recorded for it. Recorded depths are upper bounds — stealBest
// refreshes them against the live queue before trusting the top.
type stealCand struct {
	depth, id int
}

// stealRank reports whether candidate i outranks candidate j: deeper
// queue first, then smaller node id — exactly the strict-> scan order
// of loop.steal, so ties resolve to the same victim.
func (f *Fleet) stealRank(i, j int) bool {
	a, b := f.stealCands[i], f.stealCands[j]
	return a.depth > b.depth || (a.depth == b.depth && a.id < b.id)
}

func (f *Fleet) stealSiftDown(i int) {
	for {
		left, right := 2*i+1, 2*i+2
		best := i
		if left < len(f.stealCands) && f.stealRank(left, best) {
			best = left
		}
		if right < len(f.stealCands) && f.stealRank(right, best) {
			best = right
		}
		if best == i {
			return
		}
		f.stealCands[best], f.stealCands[i] = f.stealCands[i], f.stealCands[best]
		i = best
	}
}

func (f *Fleet) stealPopTop() {
	last := len(f.stealCands) - 1
	f.stealCands[0] = f.stealCands[last]
	f.stealCands = f.stealCands[:last]
	if last > 0 {
		f.stealSiftDown(0)
	}
}

// stealBest returns the node a linear scan would steal from — the
// deepest queue of at least minDepth, smallest id on ties — or nil.
// The winning entry stays at the heap root; the caller must call
// stealRefreshTop after mutating that node's queue.
func (f *Fleet) stealBest() *desNode {
	for len(f.stealCands) > 0 {
		top := f.stealCands[0]
		if v := f.nodes[top.id]; v.queue.Len() == top.depth {
			return v
		}
		f.stealRefreshTop()
	}
	return nil
}

// stealRefreshTop re-keys the root candidate from its live queue — a
// root whose key only changed keeps the heap valid after one
// sift-down — dropping it once it is too shallow to rob.
func (f *Fleet) stealRefreshTop() {
	if len(f.stealCands) == 0 {
		return
	}
	top := &f.stealCands[0]
	cur := f.nodes[top.id].queue.Len()
	if cur >= f.minDepth {
		top.depth = cur
		f.stealSiftDown(0)
	} else {
		f.stealPopTop()
	}
}

// kickIdleFleet lets node n's idle enabled servers pull work in turn,
// stopping at the first that finds none.
func (f *Fleet) kickIdleFleet(n *desNode, t float64) {
	l := f.domainOf(n.id)
	for sv := range n.idle {
		if !n.idle[sv] || !n.enabled[sv] {
			continue
		}
		f.pullWorkFleet(l, n, sv, t)
		if n.idle[sv] {
			break // nothing left to pull; further servers won't find work either
		}
	}
}

// pullWorkFleet is loop.pullWork with the steal victim chosen over the
// whole active roster. A cross-domain steal moves the request between
// request tables: stolen requests go straight to service, so the
// victim's entry is unreferenced and retires as the thief's domain
// allocates its own. Only a request whose queue slot holds its sole
// reference can move; one still referenced in its domain (a pending
// deadline or hedge timer, a cross-pair link) stays in place at the
// head of the victim's queue.
func (f *Fleet) pullWorkFleet(l *loop, n *desNode, sv int, t float64) {
	if l.mayServe(n, sv) {
		if id := l.popLocal(n); id >= 0 {
			l.startService(n, sv, id, t)
			return
		}
		if l.maySteal(n) {
			// The thief never appears among the candidates: its local
			// queue just drained (popLocal above returned -1) and
			// minDepth >= 1, matching loop.steal's self-exclusion.
			var victim *desNode
			if l.partCut != 0 {
				victim = l.deepest(f.nodes[:f.active], n)
			} else {
				victim = f.stealBest()
			}
			if victim != nil {
				vl := f.domainOf(victim.id)
				id := vl.liveHead(victim)
				switch {
				case id < 0:
				case vl == l:
					l.popLocal(victim)
					f.stealRefreshTop()
					l.startStolen(n, sv, id, t)
					return
				case vl.reqs[id].refs == 1 && !vl.reqs[id].deferRec:
					vl.popLocal(victim)
					nid := moveRequest(vl, id, l, int32(n.id))
					l.steals++
					f.stats.CrossDomainSteals++
					f.stealRefreshTop()
					l.startService(n, sv, nid, t)
					return
				}
				f.stealRefreshTop()
			}
		}
	}
	n.idle[sv] = true
}

// migrate re-homes one request popped off node n's queue — a
// deactivating, revoked or suspect node — to the least-committed
// eligible active node. A same-domain target is an ordinary dispatch.
// An unreferenced request crossing domains moves tables (a fresh entry
// in the target domain retires the victim's). A request still
// referenced inside its domain — a pending hedge or deadline timer, a
// second serving copy, or a cross-pair link — cannot move tables, so it
// re-dispatches within its own domain's survivors; with none left, a
// cross-pair copy is marked gone, and when both copies of a pair are
// gone the request is counted dropped.
func (f *Fleet) migrate(victim *loop, n *desNode, id2 int32, t float64, pred bool) {
	r := &victim.reqs[id2]
	target := victim.migrationTarget(f.nodes[:f.active], n)
	if target != nil && f.domainOf(target.id) != victim {
		if r.refs == 0 && !r.deferRec {
			// The queue slot was the only reference, so the request itself
			// can move tables. (refs == 0 rules out a live hedge copy or
			// timer, so the popped copy is the primary.)
			if int32(n.id) == r.node {
				r.node = int32(target.id)
			}
			tl := f.domainOf(target.id)
			nid := moveRequest(victim, id2, tl, r.node)
			if tl.dispatch(target, nid, t) {
				f.countMigration(pred)
				f.stats.CrossDomainMigrations++
			} else {
				tl.reqs[nid].done = true
				tl.free = append(tl.free, nid)
				f.coordDropped++
			}
			return
		}
		target = victim.migrationTarget(victim.nodes[:victim.active], n)
	}
	switch {
	case target != nil:
		if victim.dispatch(target, id2, t) {
			r.rehome(int32(n.id), int32(target.id))
			f.countMigration(pred)
		} else if r.refs == 0 {
			// No other copy in service and no pending timer: the request
			// is truly dropped. (With refs > 0 a surviving copy — or a
			// hedge timer that will re-issue one, or a deadline timer that
			// will retry it — still resolves it.)
			r.done = true
			victim.free = append(victim.free, id2)
			victim.dropped++
		}
	case r.deferRec:
		if f.pairCopyGone(victim, id2) {
			f.coordDropped++
		}
	case r.refs == 0:
		// No eligible survivor anywhere (drainQueueAny pre-checks, so
		// only autoscale's drain lands here) and nothing else resolves
		// the request.
		r.done = true
		victim.free = append(victim.free, id2)
		victim.dropped++
	}
}

// moveRequest moves request id of loop from, which holds no references
// any more, into loop to's request table as a fresh entry on the given
// node, and retires the old entry. It returns the new id.
func moveRequest(from *loop, id int32, to *loop, node int32) int32 {
	r := &from.reqs[id]
	nid := to.alloc(r.arrival, node)
	to.reqs[nid].hedgeNode = r.hedgeNode
	r.done = true
	from.free = append(from.free, id)
	return nid
}

// migrationTarget returns the least-committed node among cands that may
// take work re-homed off node from, nil when there is none.
func (l *loop) migrationTarget(cands []*desNode, from *desNode) *desNode {
	var target *desNode
	for _, v := range cands {
		if v == from || !l.eligible(v, from.id) {
			continue
		}
		if target == nil || l.committed[v.id] < l.committed[target.id] {
			target = v
		}
	}
	return target
}

// countMigration counts one re-homed request under its cause.
func (f *Fleet) countMigration(pred bool) {
	if pred {
		f.stats.PredMigrations++
	} else {
		f.stats.Migrated++
	}
}

// rehome tracks the copy that moved from node from to node to, so a
// pending hedge timer keeps avoiding the primary's node and hedge-win
// attribution stays honest; the two copies landing on one node voids
// the race — a completion there proves nothing about hedging. (A queued
// copy is the primary iff it sat on the primary's node: stolen requests
// are never re-queued, and stealing excludes hedging anyway.)
func (r *request) rehome(from, to int32) {
	if from == r.node {
		r.node = to
		if r.hedgeNode == r.node {
			r.hedgeNode = hedgeVoid
		}
	} else if r.hedgeNode == from {
		if to == r.node {
			r.hedgeNode = hedgeVoid
		} else {
			r.hedgeNode = to
		}
	}
}

// pairCopyGone marks the copy held by cross-pair entry id of loop l as
// gone and reports whether its partner's copy is gone too; if so the
// pair resolves here — both entries retire and release their pair
// links — and the caller counts the request dropped or lost.
func (f *Fleet) pairCopyGone(l *loop, id int32) bool {
	r := &l.reqs[id]
	r.copyGone = true
	pl := f.domains[r.crossDom]
	pr := &pl.reqs[r.crossRef]
	if !pr.copyGone || r.done {
		return false
	}
	r.done, pr.done = true, true
	l.release(id)
	pl.release(r.crossRef)
	return true
}
