package clusterdes

// Fault injection and the predictive slow-node detector. Every
// transition here runs in the coordinator's serial section at an
// interval boundary — the event loops are quiescent, cross-node and
// cross-domain effects happen in a fixed order, and the schedule is
// drawn once from its own Seed sub-stream — so fault-enabled runs stay
// a pure function of (Seed, Domains) at any worker count, the same
// contract the fault-free paths honour.

import (
	"fmt"
	"math"

	"hipster/internal/faults"
	"hipster/internal/policy"
	"hipster/internal/sim"
	"hipster/internal/stats"
	"hipster/internal/telemetry"
)

// initFaults draws the run's fault schedule. The draw depends only on
// (Seed, roster size, horizon) — not on Domains or Workers — so runs at
// every domain count face identical fault timelines.
func (f *Fleet) initFaults(horizon float64) error {
	if f.faultOpts == nil || f.faultsDrawn {
		return nil
	}
	intervals := int(math.Ceil(horizon / sim.IntervalSecs))
	evs, err := faults.Generate(*f.faultOpts, len(f.nodes), intervals,
		sim.SubRNG(f.opts.Seed, "des-faults"))
	if err != nil {
		return fmt.Errorf("clusterdes: %w", err)
	}
	f.faultEvs = evs
	f.faultsDrawn = true
	return nil
}

// setPartition installs (or clears, cut == 0) the partition cut on
// every domain loop, so mid-interval steal/hedge decisions see it
// without reaching for shared coordinator state.
func (f *Fleet) setPartition(cut int) {
	for _, l := range f.domains {
		l.partCut = cut
	}
}

// partCut returns the current partition cut, 0 without a partition;
// every domain loop holds the same one.
func (f *Fleet) partCut() int { return f.domains[0].partCut }

// sameSide reports whether nodes a and b can exchange work under the
// current partition (always true without one).
func (f *Fleet) sameSide(a, b int) bool { return f.domains[0].sameSide(a, b) }

// faultStep applies every schedule event due at this boundary.
func (f *Fleet) faultStep(t float64) error {
	if f.faultOpts == nil {
		return nil
	}
	step := f.clock.Steps()
	for f.faultIdx < len(f.faultEvs) && f.faultEvs[f.faultIdx].Interval <= step {
		ev := f.faultEvs[f.faultIdx]
		f.faultIdx++
		switch ev.Kind {
		case faults.Crash:
			f.crashNode(ev.Node, t, false)
		case faults.Revoke:
			f.crashNode(ev.Node, t, true)
		case faults.Recover, faults.Restore:
			if err := f.reviveNode(ev.Node); err != nil {
				return err
			}
		case faults.RevokeNotice:
			// The notice window: migrate the queue to survivors now,
			// finish what is already in flight, accept nothing new.
			n := f.nodes[ev.Node]
			n.draining = true
			f.stats.Revocations++
			f.drainQueueAny(n, t, false)
		case faults.SlowStart:
			f.nodes[ev.Node].slow = ev.Factor
			f.stats.SlowOnsets++
		case faults.SlowEnd:
			f.nodes[ev.Node].slow = 0
		case faults.PartitionStart:
			f.setPartition(ev.Cut)
			f.stats.Partitions++
		case faults.PartitionEnd:
			f.setPartition(0)
			// Force a sync round at this boundary so the healed side's
			// accumulated deltas flush immediately (see Fleet.tick).
			f.healPending = true
		}
	}
	return nil
}

// crashNode takes node id down with state loss: queued and in-flight
// requests are destroyed (terminal Lost outcome unless another copy or
// timer survives), the TD chain is cut, and the node reports dead
// telemetry until it recovers. A revocation is the same mechanism with
// its own counter — the notice window already drained what it could.
func (f *Fleet) crashNode(id int, t float64, revoked bool) {
	n := f.nodes[id]
	n.draining = false
	n.down = true
	if !revoked {
		f.stats.Crashes++
	}
	f.loseNode(f.domainOf(id), n, t)
	if ep, ok := n.pol.(policy.Episodic); ok {
		ep.EndEpisode()
	}
	n.state.Forget()
	if f.predictive {
		f.predEwma[id] = 0
		f.suspect[id] = false
	}
}

// reviveNode brings a crashed or revoked node back: cold by default,
// warm-started from the federation table when learning is on and the
// node can reach the coordinator's side. Unlike a scale-down, a crash
// never flushed the node's delta — state loss is the point — so the
// warm start is a pure pull.
func (f *Fleet) reviveNode(id int) error {
	n := f.nodes[id]
	n.down = false
	n.draining = false
	if f.fed != nil && id < f.active && f.sameSide(id, 0) {
		warmed, err := f.fed.WarmStart(id, f.clock.Steps())
		if err != nil {
			return fmt.Errorf("clusterdes: warm-start of recovered node %d: %w", id, err)
		}
		if warmed {
			f.stats.WarmStarts++
		}
	}
	n.discardResidue()
	return nil
}

// loseNode destroys node n's queued and in-flight work at time t.
// Each serving slot stops its service and goes idle; nothing pulls new
// work onto a dead node.
func (f *Fleet) loseNode(l *loop, n *desNode, t float64) {
	for s, sid := range n.serving {
		if sid < 0 {
			continue
		}
		l.stopService(n, s, t)
		n.idle[s] = true
		f.discardCopy(l, n, sid, t)
	}
	for n.queue.Len() > 0 {
		f.discardCopy(l, n, l.dequeue(n), t)
	}
}

// discardCopy destroys one copy of request id held by crashed node n,
// releasing the reference the slot or queue entry held. The request is
// Lost only when no other reference can still resolve it: a surviving
// copy, a pending hedge or deadline timer, or a cross-domain partner
// each keep it alive. The node's breaker records a failure — injected
// faults are exactly what breakers exist to observe.
func (f *Fleet) discardCopy(l *loop, n *desNode, id int32, t float64) {
	r := &l.reqs[id]
	l.release(id)
	if r.done {
		return
	}
	if n.breaker != nil {
		n.breaker.Record(false)
	}
	if r.deferRec {
		// One side of a cross-domain hedge pair died; the pair resolves
		// lost only when both copies are gone (the partner may still
		// complete), the same protocol as a failed scale-down migration.
		if f.pairCopyGone(l, id) {
			f.coordLost++
		}
		return
	}
	if r.refs == 0 {
		r.done = true
		l.lost++
		l.free = append(l.free, id)
	}
}

// drainQueueAny migrates node n's queue to eligible survivors on a
// revocation notice or a predictive flag. With no eligible target
// anywhere it leaves the queue in place — the node still serves it —
// rather than dropping. (Autoscale's leave drains unconditionally: a
// powered-off node keeps no queue.)
func (f *Fleet) drainQueueAny(n *desNode, t float64, pred bool) {
	l := f.domainOf(n.id)
	for _, v := range f.nodes[:f.active] {
		if v != n && l.eligible(v, n.id) {
			f.drainQueue(n, t, pred)
			return
		}
	}
}

// drainQueue migrates node n's queue at time t, oldest request first,
// to the least-committed eligible survivors (see migrate); pred counts
// the moves as predictive.
func (f *Fleet) drainQueue(n *desNode, t float64, pred bool) {
	l := f.domainOf(n.id)
	for {
		id := l.popLocal(n)
		if id < 0 {
			return
		}
		f.migrate(l, n, id, t, pred)
	}
}

// detectStep is the predictive slow-node detector, run every boundary
// when the Predictive mitigation is on. Each node's EWMA tracks its
// drain estimate (backlog over nominal capacity, in seconds); a node
// whose smoothed estimate exceeds predThreshold times the fleet median —
// and a floor tied to the workload target, so an idle fleet never
// flags — becomes a suspect: its queue migrates away now, it receives
// no hedges or steals, and requests routed to it hedge after only
// predHedgeFraction of the reactive delay. The signal leads the reactive
// quantile hedge because a degraded node's backlog grows as soon as
// service slows, while the sojourn quantile must wait for slow
// completions to land in the estimate.
func (f *Fleet) detectStep(t float64) {
	if !f.predictive {
		return
	}
	f.selScratch = f.selScratch[:0]
	for i, n := range f.nodes[:f.active] {
		if n.down {
			f.predEwma[n.id] = 0
			continue
		}
		q := f.samples[i].Backlog / n.state.CapacityRPS
		f.predEwma[n.id] = predAlpha*q + (1-predAlpha)*f.predEwma[n.id]
		if !n.draining {
			f.selScratch = append(f.selScratch, f.predEwma[n.id])
		}
	}
	med := 0.0
	if len(f.selScratch) > 0 {
		med, _ = stats.SelectPercentile(f.selScratch, 0.5)
	}
	for _, n := range f.nodes[:f.active] {
		e := f.predEwma[n.id]
		flag := !n.down && !n.draining &&
			e > predThreshold*med && e > 0.25*n.wl.TargetLatency
		f.suspect[n.id] = flag
		if flag {
			f.stats.PredFlags++
			if f.stats.FirstPredictInterval < 0 {
				f.stats.FirstPredictInterval = f.clock.Steps()
			}
		}
	}
	for i := f.active; i < len(f.nodes); i++ {
		f.suspect[i] = false
	}
	// Drain every suspect's queue while it stays flagged; new arrivals
	// it receives mid-interval hedge early rather than migrate.
	for _, n := range f.nodes[:f.active] {
		if f.suspect[n.id] {
			f.drainQueueAny(n, t, true)
		}
	}
	// Every domain hedges off the same fleet-wide delay.
	w := math.Inf(1)
	if hw := f.domains[0].hedgeWait; !math.IsInf(hw, 1) {
		w = hw * predHedgeFraction
	}
	for _, l := range f.domains {
		l.suspectWait = w
	}
}

// annotateFaults attaches the boundary's fault telemetry to the merged
// fleet sample: the interval's lost count and the fleet's current
// down/slow/partitioned/suspect populations.
func (f *Fleet) annotateFaults(fs *telemetry.FleetSample, lostDelta int) {
	if f.faultOpts == nil && !f.predictive {
		return
	}
	fs.Lost = lostDelta
	cut := f.partCut()
	for _, n := range f.nodes[:f.active] {
		if n.down {
			fs.DownNodes++
		}
		if n.slow > 0 {
			fs.SlowNodes++
		}
		if f.suspect != nil && f.suspect[n.id] {
			fs.Suspects++
		}
		if cut != 0 && n.id >= cut {
			fs.Partitioned++
		}
	}
}
