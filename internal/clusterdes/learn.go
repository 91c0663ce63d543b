package clusterdes

import (
	"fmt"

	"hipster/internal/cluster"
	"hipster/internal/core"
	"hipster/internal/federation"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/queueing"
	"hipster/internal/sim"
	"hipster/internal/stats"
	"hipster/internal/telemetry"
)

// LearnOptions close Hipster's RL loop inside the request-level DES:
// every node consults its own policy at each interval boundary — in
// the coordinator's serial section, after the interval's measured
// per-request tail is final — and applies the returned core/DVFS
// configuration to the next interval. This is the training substrate
// the paper describes: the reward is computed from MEASURED request
// latencies, where the interval mode can only offer its analytic tail
// estimate.
//
// Determinism contract: the learning step is strictly serial and visits
// active nodes in ascending id at every boundary, whatever the domain
// count, so a learn-enabled run remains a pure function of (Seed,
// Domains) at any worker count — fleettest pins worker-invariance and
// seed-determinism with learning on, at one domain and at several.
type LearnOptions struct {
	// BuildPolicy returns node i's policy. The default builds a hybrid
	// heuristic+RL Hipster manager per node, seeded Options.Seed+i, so
	// every node explores its own trajectory. The function must return
	// a fresh (or deliberately shared) policy per call — determinism
	// harnesses rebuild the fleet several times and must not leak
	// learned state between runs unless they mean to.
	BuildPolicy func(nodeID int) (policy.Policy, error)

	// Params tunes the default Hipster managers when BuildPolicy is nil
	// (zero value: core.DefaultParams()).
	Params *core.Params

	// Federation, when non-nil, shares the per-node RL tables across
	// the fleet at interval boundaries with the same protocol as the
	// interval-mode cluster: periodic delta sync rounds, warm-starts on
	// autoscale activation, delta flushes on deactivation. Every node
	// policy exposing policy.TableProvider participates.
	Federation *cluster.FederationOptions
}

// initLearn builds per-node policies and the optional federation.
func (f *Fleet) initLearn(lo LearnOptions) error {
	build := lo.BuildPolicy
	if build == nil {
		params := core.DefaultParams()
		if lo.Params != nil {
			params = *lo.Params
		}
		seed := f.opts.Seed
		nodes := f.opts.Nodes
		build = func(nodeID int) (policy.Policy, error) {
			return core.New(core.In, nodes[nodeID].Spec, params, seed+int64(nodeID))
		}
	}
	pols := make([]policy.Policy, len(f.nodes))
	for i, n := range f.nodes {
		p, err := build(i)
		if err != nil {
			return fmt.Errorf("clusterdes: node %d policy: %w", i, err)
		}
		if p == nil {
			return fmt.Errorf("clusterdes: node %d: BuildPolicy returned a nil policy", i)
		}
		n.pol = p
		pols[i] = p
	}
	if lo.Federation != nil {
		fed, err := cluster.NewFederation(*lo.Federation, pols)
		if err != nil {
			return err
		}
		f.fed = fed
	}
	f.learning = true
	f.isActiveFn = f.isSyncable
	return nil
}

// isSyncable reports whether a node participates in a federation sync
// round: active, up, and — under a partition — on the coordinator's
// side (node 0's). A partitioned or down node both misses rounds and
// keeps accumulating its delta, which flushes at the forced round on
// heal or recovery. Without faults this is exactly membership in the
// active set (the roster prefix).
func (f *Fleet) isSyncable(id int) bool {
	return id < f.active && !f.nodes[id].down && f.sameSide(id, 0)
}

// Learning reports whether the in-DES RL loop is enabled.
func (f *Fleet) Learning() bool { return f.learning }

// NodePolicy returns node i's policy, nil when learning is disabled —
// the handle for saving a trained table (core.Manager.SaveTable) or
// switching a trained manager to exploitation before an evaluation run.
func (f *Fleet) NodePolicy(i int) policy.Policy { return f.nodes[i].pol }

// FederationStats returns the federation coordinator's activity
// counters; ok is false when federation is disabled.
func (f *Fleet) FederationStats() (st federation.Stats, ok bool) {
	if f.fed == nil {
		return federation.Stats{}, false
	}
	return f.fed.Stats(), true
}

// applyConfig re-points the node's fixed server slots at cfg: the
// first cfg.NBig big slots and cfg.NSmall small slots are enabled at
// the configuration's service rates, the rest disabled. A disabled
// slot that is mid-service drains — its completion event stands at the
// already-drawn time — and then stops pulling work; an enabled idle
// slot is picked up by the boundary's idle kick. scratch is the
// caller's AppendServers reuse buffer (may be nil); the possibly-grown
// buffer is returned.
func (n *desNode) applyConfig(cfg platform.Config, scratch []queueing.Server) []queueing.Server {
	n.cfg = cfg
	scratch = n.wl.AppendServers(scratch[:0], n.spec, cfg, 1)
	var bigRate, smallRate float64
	if cfg.NBig > 0 {
		bigRate = scratch[0].Rate
	}
	if cfg.NSmall > 0 {
		smallRate = scratch[cfg.NBig].Rate
	}
	n.capacity = 0
	for s := range n.servers {
		rate := smallRate
		on := s-n.bigSlots < cfg.NSmall
		if s < n.bigSlots {
			rate = bigRate
			on = s < cfg.NBig
		}
		n.enabled[s] = on
		if !on {
			continue
		}
		if n.servers[s].Rate != rate {
			n.servers[s].Rate = rate
			n.dists[s] = stats.LogNormalFromMeanCV(1/rate, n.wl.DemandCV)
		}
		n.capacity += rate
	}
	return scratch
}

// learnStep runs one policy decision per active node for the interval
// that just ended at tEnd, strictly serially in ascending node id.
// Each node observes its own measured sample — tail latency over the
// requests IT completed, its own power — exactly the observation shape
// the interval-mode engine feeds the same policies, so tables learned
// here are interchangeable with interval-trained ones. Warming nodes
// decide too: their drowning-queue sample is precisely the state a
// policy should learn to spend power on.
func (f *Fleet) learnStep(tEnd float64) error {
	if !f.learning {
		return nil
	}
	f.learnPhase, f.learnRewardSum, f.learnRewardN = 0, 0, 0
	for i, n := range f.nodes[:f.active] {
		if n.down {
			// A crashed node makes no operating-point decisions; its TD
			// chain was cut at the crash and resumes on recovery.
			continue
		}
		s := &f.samples[i]
		obs := policy.Observation{
			Time:        tEnd,
			Interval:    sim.IntervalSecs,
			LoadFrac:    n.wl.LoadFrac(s.OfferedRPS),
			TailLatency: s.TailLatency,
			Target:      s.Target,
			PowerW:      s.PowerW(),
			Current:     n.cfg,
		}
		next := n.pol.Decide(obs).Normalize(n.spec)
		if err := next.Validate(n.spec); err != nil {
			return fmt.Errorf("clusterdes: node %d policy %q: %w", n.id, n.pol.Name(), err)
		}
		f.stats.LearnDecisions++
		if ph, ok := n.pol.(policy.Phaser); ok {
			s.Phase = ph.Phase()
			if s.Phase == "learning" {
				f.learnPhase++
			}
		}
		if rr, ok := n.pol.(policy.RewardReporter); ok {
			if lam, ok := rr.LastReward(); ok {
				f.learnRewardSum += lam
				f.learnRewardN++
			}
		}
		if next != n.cfg {
			if next.NBig != n.cfg.NBig || next.NSmall != n.cfg.NSmall {
				f.stats.CoreMigrations++
			} else {
				f.stats.DVFSChanges++
			}
			f.svScratch = n.applyConfig(next, f.svScratch)
		}
	}
	return nil
}

// annotateLearn attaches the boundary's learning telemetry to the
// merged fleet sample.
func (f *Fleet) annotateLearn(fs *telemetry.FleetSample) {
	if !f.learning {
		return
	}
	fs.Learning = f.learnPhase
	if f.learnRewardN > 0 {
		fs.RewardMean = f.learnRewardSum / float64(f.learnRewardN)
	}
}
