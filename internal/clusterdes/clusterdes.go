// Package clusterdes is the request-level counterpart of the
// interval-granularity cluster layer: one discrete-event simulation
// spanning the whole fleet. Requests are generated fleet-wide from the
// datacenter load pattern, routed to a node at arrival time through the
// same pluggable splitters the interval mode uses, and carry their
// latency end to end through per-node queues and server pools — so
// cross-node queueing, which the interval model collapses into one
// aggregate tail number per node, is visible request by request. That
// visibility is what enables the three features the interval mode
// cannot express: straggler mitigation on in-flight requests (hedged
// requests and cross-node work stealing), node warm-up after an
// autoscale activation (a woken node serving nothing, or at a degraded
// rate, for k intervals while its queue builds), and a queue-depth
// autoscale signal that sees the queue forming instead of waiting for
// last interval's tail to cross the target.
//
// The roster is split into routing domains — contiguous node blocks,
// one fleet-wide domain by default — and each domain runs its own event
// loop serially in event-time order, so routing, hedging and stealing
// decisions happen at deterministic points of one totally ordered event
// sequence per domain. Everything that couples nodes across domains,
// and every fleet-level decision, runs at interval boundaries in the
// coordinator's serial section. Workers parallelise only the domain
// steps between boundaries and the per-node interval summaries (tail
// percentiles, power evaluation) at them, each writing its own state;
// a run is therefore a pure function of (seed, domain count) and
// bit-identical at any worker count, the same two invariants the
// interval-mode cluster guarantees.
//
// With Options.Learn set, the DES additionally closes Hipster's RL
// loop at request granularity: each node consults a per-node policy
// (by default the hybrid heuristic+RL manager) at every interval
// boundary, in the coordinator's serial section, observing the
// interval's MEASURED tail latency — not the analytic estimate the
// interval mode trains against — and reconfigures its core mapping and
// DVFS for the next interval. Reconfiguration uses a fixed-slot server
// layout: disabled cores drain their in-flight request and then stop
// pulling work, so no event is ever invalidated and the learning runs
// keep the exact determinism contract of fixed-configuration runs.
package clusterdes

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/faults"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/queueing"
	"hipster/internal/resilience"
	"hipster/internal/sim"
	"hipster/internal/stats"
	"hipster/internal/telemetry"
	"hipster/internal/workload"
)

// NodeConfig describes one node of the DES fleet. Without
// Options.Learn there is no per-node policy loop: the DES answers
// routing and queueing questions at a fixed configuration per node,
// which keeps every latency difference attributable to the front-end
// decision under study (splitter, mitigation, scaling signal) rather
// than to DVFS reactions. With Options.Learn set, Config is only the
// starting configuration — each node's policy re-picks its operating
// point every interval.
type NodeConfig struct {
	Spec     *platform.Spec
	Workload *workload.Model
	// Config is the node's fixed core/DVFS configuration (default: all
	// big cores at maximum DVFS).
	Config *platform.Config
}

// AutoscaleOptions enable elastic sizing of the DES fleet. Scale
// events run through the interval mode's cluster.Scaler: the same
// option resolution, controller (bounds, cooldown, hysteresis),
// scaling policies, federation warm-start/flush and counters. Two
// things differ from the interval mode, both only expressible at
// request granularity. First, the policy's OfferedRPS is the MEASURED
// arrival rate of the previous interval, not the pattern's demand for
// the coming one — the DES autoscaler is an observer, not
// clairvoyant. Second, activation is not free: a woken node spends
// WarmupIntervals intervals degraded to WarmupFactor of its service
// rate (0 = serves nothing) while the splitter, which routes by
// nominal capacity, keeps sending it traffic — the queue that builds
// is the transient CloudCoaster-style schedulers plan around, and
// mitigation policies act on.
type AutoscaleOptions struct {
	// Policy proposes the desired active count each interval (default
	// autoscale.TargetUtilization{}).
	Policy autoscale.Policy
	// MinNodes and MaxNodes bound the active count (defaults 1 and the
	// roster size).
	MinNodes, MaxNodes int
	// InitialNodes is the active count before the first interval
	// (default MinNodes). Initial nodes start warm.
	InitialNodes int
	// CooldownIntervals and DownAfterIntervals are the controller's
	// scale-down cooldown and hysteresis (defaults 5 and 3).
	CooldownIntervals, DownAfterIntervals int
	// WarmupIntervals is how many intervals an activated node serves
	// degraded (default 0 = joins warm, matching the interval mode).
	WarmupIntervals int
	// WarmupFactor is the fraction of its service rate a warming node
	// retains, in [0, 1): 0 means a warming node serves nothing and
	// only queues (default 0).
	WarmupFactor float64
}

// Options configure a cluster-scale discrete-event run.
type Options struct {
	// Nodes is the fleet definition; at least one node.
	Nodes []NodeConfig

	// Pattern is the datacenter-level offered load as a fraction of
	// total fleet capacity (the sum of node configuration capacities).
	Pattern loadgen.Pattern

	// Splitter carves the fleet arrival rate into per-node routing
	// weights each interval; each request then picks its node by one
	// draw over those weights (default cluster.WeightedByCapacity).
	Splitter cluster.Splitter

	// Mitigation is the straggler-mitigation policy (default None).
	Mitigation Mitigation

	// Workers parallelises the per-node interval summaries and, in a
	// sharded run, the per-domain event loops; 0 means GOMAXPROCS.
	// Results do not depend on this value.
	Workers int

	// Domains shards the roster into this many routing domains, each a
	// contiguous block of nodes with its own event loop and RNG streams
	// (derived from Seed+domain). Domains step in parallel on the
	// worker pool; cross-domain effects — steals, hedge copies landing
	// in another domain, autoscale roster changes — are exchanged only
	// at interval boundaries, so the run is a pure function of (Seed,
	// Domains) at any worker count. 0 and 1 both run one fleet-wide
	// domain. Must not exceed the roster size.
	Domains int

	// Seed fully determines the run (arrival, routing and service-time
	// streams are derived sub-streams).
	Seed int64

	// Autoscale, when non-nil, grows and shrinks the active node set.
	Autoscale *AutoscaleOptions

	// MaxQueue bounds each node's request queue; arrivals beyond it are
	// dropped and counted (0 derives a bound from the workload's
	// BacklogCapSecs, mirroring the single-node DES).
	MaxQueue int

	// Learn, when non-nil, closes the RL loop inside the DES: each node
	// consults its own policy at every interval boundary (in the
	// coordinator's serial section) and reconfigures for the next
	// interval, learning from the interval's measured request tail. The
	// run stays a pure function of (Seed, Domains) at any worker count.
	Learn *LearnOptions

	// Faults, when non-nil with any fault class enabled, injects a
	// seeded deterministic fault schedule into the run: node crashes
	// that lose queued and in-flight work (the Lost disposition), slow
	// nodes serving at a degraded rate, network partitions severing
	// cross-side steals/hedges/migrations and federation syncs, and
	// spot-pool revocations drained through their notice window. Every
	// injection and recovery transition fires in the coordinator's
	// serial section, and the schedule is drawn up front from its own
	// sub-stream of Seed — so fault-enabled runs remain a pure function
	// of (Seed, Domains) at any worker count.
	Faults *faults.Options

	// Resilience, when non-nil with any feature enabled, adds
	// request-path failure policies: bounded retries with seeded-jitter
	// exponential backoff, per-attempt deadlines (a timed-out request
	// frees its server slot and retries or counts timed out), per-node
	// token-bucket admission limiting and circuit breakers, hedge-copy
	// cancellation, and per-node hedge budgets. Every policy decision
	// fires inside the event loop or the coordinator's serial section
	// (breaker windows roll and hedge budgets reset only at interval
	// boundaries), so resilience-enabled runs keep the pure-function-of-
	// (Seed, Domains) contract at any worker count.
	Resilience *resilience.Options
}

// LatencySummary is the end-to-end request-latency distribution of a
// run — the number the interval mode cannot produce, since it never
// sees an individual request cross the splitter.
type LatencySummary struct {
	Completed int
	Dropped   int
	// TimedOut counts requests whose final attempt's deadline expired
	// with no retry budget left (resilience timeouts only; always zero
	// without them).
	TimedOut int
	// Lost counts requests destroyed by an injected node crash or
	// revocation — every copy sat on the dying node and nothing (hedge
	// timer, deadline, second copy) remained to revive them. Always
	// zero without Options.Faults.
	Lost int
	Mean float64
	P50  float64
	P90  float64
	P95  float64
	P99  float64
}

// Stats counts the DES fleet's mitigation and scaling activity.
type Stats struct {
	// Requests counts primary arrivals offered to the fleet (every
	// request is eventually completed, counted dropped, counted timed
	// out, or counted lost — the conservation law the fleettest battery
	// asserts).
	Requests int
	// Hedges counts hedge copies issued; HedgeWins how many completed
	// before the primary.
	Hedges, HedgeWins int
	// Steals counts cross-node work steals.
	Steals int
	// CrossDomainHedges, CrossDomainSteals and CrossDomainMigrations
	// count the boundary exchanges of a sharded run: hedge copies
	// placed in another routing domain, steals across a domain
	// boundary, and scale-down migrations that moved a request between
	// domains. Always zero with one domain (Domains <= 1).
	CrossDomainHedges, CrossDomainSteals, CrossDomainMigrations int
	// Migrated counts queued requests re-routed off a deactivating node.
	Migrated int
	// Ups/Downs/NodesAdded/NodesRemoved count autoscale events.
	Ups, Downs, NodesAdded, NodesRemoved int
	// FirstScaleUpInterval is the monitoring interval of the first
	// scale-up (-1 if the fleet never grew) — what the queue-depth vs
	// tail-signal comparison measures.
	FirstScaleUpInterval int
	// WarmupIntervals is the node-intervals spent warming.
	WarmupIntervals int
	// PeakActive and MinActive bracket the active count.
	PeakActive, MinActive int
	// NodeIntervals is the active node-intervals consumed.
	NodeIntervals int
	// LearnDecisions counts per-node policy decisions taken at interval
	// boundaries (Learn enabled; zero otherwise). CoreMigrations counts
	// decisions that changed the core mapping (NBig/NSmall);
	// DVFSChanges counts decisions that only changed frequency.
	LearnDecisions, CoreMigrations, DVFSChanges int
	// SyncRounds, WarmStarts and Flushes count federation activity when
	// Learn.Federation is set: boundary sync rounds run, activating
	// nodes seeded from the fleet table, and departing nodes folding
	// their delta in.
	SyncRounds, WarmStarts, Flushes int
	// Resilience activity (Options.Resilience; all zero without it).
	// Retries counts re-issued attempts; Timeouts counts per-attempt
	// deadline expiries (a request can time out several times before
	// completing on a retry — requests finally lost to a deadline are
	// Latency.TimedOut); BreakerOpens counts circuit-breaker open (and
	// re-open) transitions; RateLimited counts token-bucket admission
	// rejections; HedgeCancels counts losing hedge copies cancelled
	// mid-service.
	Retries, Timeouts, BreakerOpens, RateLimited, HedgeCancels int
	// Fault-injection activity (Options.Faults; all zero without it).
	// Crashes counts node crashes, Revocations spot-pool notices,
	// Partitions partition onsets, SlowOnsets slow-node episodes; Lost
	// mirrors Latency.Lost.
	Crashes, Revocations, Partitions, SlowOnsets, Lost int
	// Predictive-mitigation activity (the Predictive mitigation; zero
	// otherwise): suspect node-intervals flagged by the EWMA detector,
	// queued requests proactively migrated off flagged nodes, and the
	// monitoring interval of the first flag (-1 if none fired) — the
	// number the predictive-vs-reactive comparison measures.
	PredFlags, PredMigrations int
	FirstPredictInterval      int
}

// Result bundles a finished DES run.
type Result struct {
	Fleet   *telemetry.FleetTrace
	Nodes   []*telemetry.Trace
	Latency LatencySummary
	Stats   Stats
}

// Summarize computes the fleet's headline metrics.
func (r Result) Summarize() telemetry.FleetSummary { return r.Fleet.Summarize() }

// Event kinds of the fleet event loop. Completions and retries are heap
// events. Deadline (evTimeout) and hedge timers ride in the loop's two
// FIFO timer lanes, and reach the heap only when their lane refuses
// them (see eventQueue.arm). Fleet arrivals and interval ticks are not
// queued at all — each is a single strictly increasing scalar
// next-time. runInterval merges the heap top, the two lane heads and
// the next arrival by comparison.
const (
	evCompletion = iota // node a, server b, service sequence c
	evHedge             // request a
	evTimeout           // request a (per-attempt deadline expiry)
	evRetry             // request a (backed-off re-issue due)
)

type event struct {
	kind int8
	a, b int32
	// c carries an evCompletion's service sequence: stopService bumps
	// the slot's sequence, stranding any completion event issued for
	// the abandoned service — the heap needs no deletions.
	c int32
}

// Sources of a loop's next queued event, in tie order: at equal times
// the heap top goes first, then the deadline lane, then the hedge lane.
// (The pending arrival goes after all three; see runInterval.)
const (
	srcHeap = iota
	srcDeadline
	srcHedge
)

// timer is one pending deadline or hedge timer in a lane.
type timer struct {
	t  float64
	id int32 // request
}

// timerLane is a FIFO of timers whose due times never decrease, so its
// head is its earliest timer.
type timerLane struct {
	ring queueing.Ring[timer]
	tail float64 // due time of the last timer appended; -Inf before the first
	// spilled counts the timers the lane refused, which arm put on the
	// heap instead. Nothing in the model reads it.
	spilled int
}

// eventQueue holds a loop's pending events: completions and retries on
// a heap, deadline and hedge timers in two FIFO lanes beside it. A
// deadline is armed at now + the run's constant timeout and a hedge at
// now + the interval's hedge delay, and the loop clock never goes
// backwards, so each lane's due times arrive in order except where a
// delay shrank; arm sends exactly those timers to the heap. The pop
// order is therefore exact time order whatever the delays do — they
// only decide how many timers pay the heap's log n — and the many
// timers that are stale by the time they fire skip the sift.
type eventQueue struct {
	heap      queueing.TimeHeap[event]
	deadlines timerLane
	hedges    timerLane
	// timerNext is the earliest due time in either lane, +Inf when both
	// are empty, and timerSrc the lane holding it (the deadline lane on
	// a tie), so next weighs both lanes with one comparison.
	timerNext float64
	timerSrc  int
}

// newEventQueue returns an empty queue.
func newEventQueue() eventQueue {
	return eventQueue{
		deadlines: timerLane{tail: math.Inf(-1)},
		hedges:    timerLane{tail: math.Inf(-1)},
		timerNext: math.Inf(1),
	}
}

// arm schedules request id's evTimeout or evHedge timer at t. A timer
// due no earlier than its lane's tail is appended to the lane; any
// other goes on the heap with its kind, so each lane stays sorted.
func (q *eventQueue) arm(t float64, kind int8, id int32) {
	lane, src := &q.hedges, srcHedge
	if kind == evTimeout {
		lane, src = &q.deadlines, srcDeadline
	}
	if !(t >= lane.tail) {
		lane.spilled++
		q.heap.Push(t, event{kind: kind, a: id})
		return
	}
	lane.ring.Push(timer{t: t, id: id})
	lane.tail = t
	if t < q.timerNext || t == q.timerNext && src == srcDeadline {
		q.timerNext, q.timerSrc = t, src
	}
}

// next returns the source of the earliest queued event — the heap top
// or a lane head, the heap on a tie — and its time, +Inf when nothing
// is queued. It is small enough to inline into the event loop.
func (q *eventQueue) next() (src int, t float64) {
	src, t = q.timerSrc, q.timerNext
	if ht, ok := q.heap.PeekTime(); ok && ht <= t {
		src, t = srcHeap, ht
	}
	return src, t
}

// popTimer removes the earliest lane timer, the one next reported, and
// returns it as the event the heap would have held.
func (q *eventQueue) popTimer() (float64, event) {
	lane, kind := &q.deadlines, int8(evTimeout)
	if q.timerSrc == srcHedge {
		lane, kind = &q.hedges, evHedge
	}
	tm := lane.ring.Pop()
	q.timerNext, q.timerSrc = math.Inf(1), srcHedge
	if q.deadlines.ring.Len() > 0 {
		q.timerNext, q.timerSrc = q.deadlines.ring.Peek().t, srcDeadline
	}
	if q.hedges.ring.Len() > 0 && q.hedges.ring.Peek().t < q.timerNext {
		q.timerNext, q.timerSrc = q.hedges.ring.Peek().t, srcHedge
	}
	return tm.t, event{kind: kind, a: tm.id}
}

// hedgeVoid marks a request whose hedge race lost its meaning — a
// scale-down migrated the primary copy onto the hedge node, so a
// completion there proves nothing about hedging.
const hedgeVoid = -2

// hedgeCross marks a request whose hedge copy lives in another routing
// domain (multi-domain runs only): the copy is a mirror entry in the
// target domain's request table, linked through crossDom/crossRef.
const hedgeCross = -3

// request is one in-flight request. A request id is recycled through a
// free list once every reference to it (queue slots, serving servers,
// the pending hedge timer) has been released.
//
// The cross-domain fields are used only by multi-domain runs and stay
// zero with one domain. When a hedge copy is placed in another domain,
// both entries of the pair defer their completion record (deferRec) to
// the coordinator's boundary reconciliation — only there are both
// domains' completions visible, so only there can the race be decided
// without double-counting. Each entry of a pair holds one extra
// reference on behalf of the link, released at reconciliation, so
// neither id can be recycled while its partner might still name it.
type request struct {
	arrival   float64
	node      int32 // primary node
	hedgeNode int32 // node the hedge copy went to; -1 none, hedgeVoid disabled
	refs      int8
	attempts  int8 // retries already issued (resilience)
	done      bool
	deferRec  bool  // record at boundary reconciliation, not at completion
	mirror    bool  // this entry is the hedge-copy side of a cross pair
	copyGone  bool  // this copy was discarded (failed scale-down migration)
	crossDom  int32 // partner entry's domain
	crossRef  int32 // partner entry's request id in that domain
}

// crossEvent is one completion of a cross-domain request pair, queued
// for the coordinator's boundary reconciliation. dom/id name the ORIGIN
// (primary) entry of the pair regardless of which copy completed, so
// the two domains' events for one request collide on the same key.
type crossEvent struct {
	dom     int32
	id      int32
	t       float64 // completion (or expiry) time
	node    int32   // node that completed this copy
	mirror  bool    // the completing copy was the mirror (hedge) side
	timeout bool    // deadline expiry, not a completion (origin side only)
}

// desNode is one node's simulation state.
type desNode struct {
	id   int
	spec *platform.Spec
	wl   *workload.Model
	cfg  platform.Config

	// The server pool uses a fixed-slot layout: every node always
	// allocates spec.Big.Cores + spec.Small.Cores slots — big slots
	// first ([0, bigSlots)), small after — and the current
	// configuration enables a prefix of each kind. Reconfiguring (the
	// learning loop) flips enabled flags and rates; a disabled slot
	// finishes its in-flight service at the already-drawn completion
	// time and then stops pulling work, so no heap event is ever
	// invalidated and fixed-configuration runs are bit-identical to the
	// pre-slot layout.
	servers   []queueing.Server
	dists     []stats.LogNormal
	enabled   []bool
	bigSlots  int
	idle      []bool
	serving   []int32
	svcSeq    []int32   // per-slot service sequence; bumped by stopService
	busy      []float64 // busy seconds attributed to this interval
	busyUntil []float64 // absolute end time of each server's current service
	queue     queueing.Ring[int32]
	capacity  float64 // total enabled service rate under the current config
	maxQueue  int

	pol policy.Policy // per-node operating-point policy; nil unless Options.Learn

	// Resilience state (nil / zero unless Options.Resilience enables
	// the feature). hedgeLeft is the node's remaining hedge-copy budget
	// for the current interval, reset in the serial section.
	breaker   *resilience.Breaker
	bucket    *resilience.TokenBucket
	hedgeLeft int

	warmLeft int

	// Fault state (Options.Faults; all zero without it). A down node is
	// crashed or revoked: it serves nothing, routes nothing, and its
	// telemetry reports a dead sample. A draining node is a spot node
	// inside its revocation notice window: it finishes in-flight work
	// but accepts nothing new. slow > 0 stretches every service time by
	// 1/slow — the injected degradation the predictive detector hunts.
	down     bool
	draining bool
	slow     float64

	// Per-interval accumulators.
	arrived   int
	completed int
	sojourns  []float64

	meter       platform.EnergyMeter
	lastEnergyJ float64
	trace       *telemetry.Trace
	state       cluster.NodeState

	bigUtils   []float64
	smallUtils []float64
}

// latRecorder is the end-to-end latency record. Storing every sojourn
// of a memcached-scale day would need gigabytes, so the sample is a
// deterministic systematic one: every stride-th winning completion is
// kept, and when the sample reaches latSampleCap it is decimated in
// place and the stride doubled. Below the cap (every Web-Search-scale
// run) the record is exact. The count and mean are always exact.
//
// The kept sample lives in fixed-size blocks, kept sojourn i at
// blocks[i>>latBlockBits][i&latBlockMask], so filling it never copies
// more than the first block: that one grows by doubling (a small run
// pays for what it keeps, not for a full block), every later block is
// allocated once at full size, and decimation keeps every block's
// storage for the refill.
type latRecorder struct {
	blocks [][]float64
	n      int // kept sample length
	stride int64
	seen   int64
	sum    float64
	limit  int // sample length that triggers decimation: latSampleCap, lowered only by tests
}

// The latency sample's block length: 1<<16 float64s (512 KiB), so a
// full latSampleCap sample is 64 blocks.
const (
	latBlockBits = 16
	latBlockLen  = 1 << latBlockBits
	latBlockMask = latBlockLen - 1
)

// newLatRecorder returns an empty exact recorder.
func newLatRecorder() latRecorder { return latRecorder{stride: 1, limit: latSampleCap} }

// settings are the fleet-wide settings, resolved once in New and
// embedded in the Fleet and in every domain loop, so a loop reads them
// without reaching for coordinator state.
type settings struct {
	// Mitigation, resolved: hedging, and stealing from queues at least
	// minDepth deep.
	hedging  bool
	stealing bool
	minDepth int
	// resil is the fleet's resolved resilience policy; nil when the
	// layer is off, in which case none of its event kinds exist.
	resil *resilience.Options
	// warmFactor is the service-rate fraction a warming node retains.
	warmFactor float64
	// suspect is the fleet-shared predictive flag vector, indexed by
	// global node id and written only at boundaries (nil without the
	// Predictive mitigation). Copies of settings share it.
	suspect []bool
	// committed and hedgeBars are the flat inputs of the least-committed
	// placements, indexed by global node id and shared like suspect:
	// committed[i] is node i's queue length plus busy servers, and
	// hedgeBars[i] is hedgeBar while node i may not take a hedge copy, 0
	// otherwise (see rebuildHedgeBars). Between boundaries a loop writes
	// only its own nodes' entries.
	committed []int32
	hedgeBars []int32
}

// hedgeBar marks a node barred from hedge copies. It exceeds any
// committed count a node can reach (a queue that deep would need tens
// of GB of request table), so a barred node never wins hedgeTarget's
// argmin over committed[i] + hedgeBars[i].
const hedgeBar = 1 << 30

// loop is one routing domain's event loop: the request table, event
// queue, RNG streams, arrival process and per-interval counters for a
// contiguous slice of the roster. The Fleet builds one loop per domain
// (a single loop spanning the whole roster by default) and steps them
// in parallel, exchanging cross-domain effects only at interval
// boundaries. All methods on loop touch only the loop's own state,
// which is exactly what makes the parallel step deterministic.
type loop struct {
	id int // domain id
	lo int // global id of this loop's first node

	nodes        []*desNode
	active       int // active nodes in this loop (a prefix of nodes)
	rosterActive int // fleet-wide active count (== active with one domain)

	settings
	hedgeWait float64 // current hedge delay; +Inf until first estimate

	// deep counts this loop's nodes whose raw queue length is at least
	// minDepth; enqueue and dequeue keep it. With stealing on, zero
	// means no queue is deep enough to rob.
	deep int

	// deferCross lets a hedge with no in-domain target park the
	// re-issue for the coordinator instead of giving up; false with one
	// domain, where "no target in this domain" already means "no target
	// anywhere".
	deferCross bool

	// Fault-layer state, updated only in the coordinator's serial
	// section (all zero without Options.Faults or the Predictive
	// mitigation). partCut != 0 splits the roster into sides [0, cut)
	// and [cut, n) that exchange no steals, hedges or migrations; every
	// loop holds the same cut. servingN counts active-prefix nodes that
	// are neither down nor draining. suspectWait is the shortened hedge
	// delay for requests routed to a flagged node. lost counts requests
	// destroyed on this loop's crashed nodes, cumulative over the run
	// like dropped.
	partCut     int
	servingN    int
	suspectWait float64
	lost        int

	arrRNG   *rand.Rand
	routeRNG *rand.Rand
	svcRNG   *rand.Rand
	retryRNG *rand.Rand // backoff jitter; its own stream so retries do not shift the others

	events eventQueue
	reqs   []request
	free   []int32

	lambda      float64
	nextArrival float64
	tickEnd     float64 // end of the current interval
	// shares are the interval's routing weights over the active prefix
	// and cumShares their running sums, added in index order; shareSum
	// is the last running sum. guide[k] is the first active index whose
	// running sum exceeds k·shareSum/active, where routeIndex starts its
	// walk, and guideScale is active/shareSum. refreshInterval rebuilds
	// all of them at every boundary.
	shares     []float64
	cumShares  []float64
	shareSum   float64
	guide      []int32
	guideScale float64

	// Per-interval scratch. dropped and timedOut are cumulative over
	// the run; the rest reset at every boundary. intervalSojourns, the
	// hedge delay's input, is collected only when hedging.
	intervalSojourns []float64
	hedges           int
	hedgeWins        int
	steals           int
	primaries        int
	dropped          int
	timedOut         int
	retries          int
	timeouts         int
	rateLimited      int
	hedgeCancels     int

	lat latRecorder

	// Boundary outboxes (multi-domain runs only): hedge re-issues with
	// no in-domain target, and completions of cross-domain pairs
	// awaiting reconciliation.
	deferredHedges []int32
	crossDone      []crossEvent
}

// node maps a global node id to this loop's slice (a domain owns the
// contiguous id range starting at lo).
func (l *loop) node(id int32) *desNode { return l.nodes[int(id)-l.lo] }

// Fleet is the cluster-scale discrete-event simulator: the roster, the
// fleet-wide settings every domain loop copies, the domain loops, and
// the coordinator that runs between them at interval boundaries. It is
// not safe for concurrent use.
type Fleet struct {
	opts     Options
	splitter cluster.Splitter
	workers  int
	fleetCap float64
	clock    *sim.Clock

	hedgeQ float64

	// nodes is the roster; the first active of them are the active set.
	nodes  []*desNode
	active int

	// settings are resolved once and copied into every domain loop.
	settings

	// domains are the routing-domain loops in roster order; domOf maps a
	// node id to its domain's index.
	domains []*loop
	domOf   []int32

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

	// selScratch gathers the samples a boundary reads one percentile
	// from (the hedge delay, the predictive median).
	selScratch []float64

	// pool steps the domains and runs the per-node interval summaries;
	// stepFn and sumFn are its cached closures, reading the interval end
	// from tEnd, so neither a step nor a boundary allocates.
	pool   *cluster.Pool
	stepFn func(i int)
	sumFn  func(i int)
	tEnd   float64

	states  []cluster.NodeState
	samples []telemetry.Sample
	fleet   *telemetry.FleetTrace
	merger  telemetry.Merger

	scaler    *cluster.Scaler
	warmupIvs int

	// breakerOpens counts the interval's breaker open transitions;
	// rollResilience writes it, the boundary harvest resets it.
	breakerOpens int

	// Learning-loop state (Options.Learn).
	learning   bool
	fed        *cluster.Federation
	isActiveFn func(int) bool
	svScratch  []queueing.Server
	// Per-boundary learn telemetry, attached to the interval's fleet
	// sample after the merge.
	learnPhase     int
	learnRewardSum float64
	learnRewardN   int

	// Fault-injection state (Options.Faults). The schedule is drawn
	// once per run from its own Seed sub-stream; faultIdx walks it as
	// boundaries pass. healPending forces a federation sync round at
	// the boundary a partition heals, so nodes that missed rounds flush
	// their accumulated deltas. prevLost tracks the run's loss total at
	// the previous boundary for per-interval telemetry deltas.
	faultOpts   *faults.Options
	faultEvs    faults.Schedule
	faultIdx    int
	faultsDrawn bool
	healPending bool
	prevLost    int

	// Predictive-mitigation state (the Predictive mitigation): per-node
	// EWMA of the drain estimate.
	predictive bool
	predEwma   []float64

	stats  Stats
	failed error
}

// New validates options and builds the fleet simulator.
func New(opts Options) (*Fleet, error) {
	if len(opts.Nodes) == 0 {
		return nil, errors.New("clusterdes: no nodes")
	}
	if opts.Pattern == nil {
		return nil, errors.New("clusterdes: nil load pattern")
	}
	if opts.Workers < 0 {
		return nil, errors.New("clusterdes: negative worker count")
	}
	if opts.MaxQueue < 0 {
		return nil, errors.New("clusterdes: negative queue bound")
	}
	if opts.Domains < 0 {
		return nil, errors.New("clusterdes: negative domain count")
	}
	if opts.Domains > len(opts.Nodes) {
		return nil, fmt.Errorf("clusterdes: %d domains exceed the %d-node roster", opts.Domains, len(opts.Nodes))
	}
	f := &Fleet{
		opts:     opts,
		splitter: opts.Splitter,
		workers:  opts.Workers,
		lat:      newLatRecorder(),
		fleet:    &telemetry.FleetTrace{},
	}
	if f.splitter == nil {
		f.splitter = cluster.WeightedByCapacity{}
	}
	if f.workers == 0 {
		f.workers = runtime.GOMAXPROCS(0)
	}
	f.clock = sim.NewClock()

	switch m := opts.Mitigation.(type) {
	case nil, None:
	case Hedged:
		if err := f.enableHedging(m.Quantile); err != nil {
			return nil, err
		}
	case WorkStealing:
		f.stealing = true
		f.minDepth = stealMinDepth
	case Predictive:
		if err := f.enableHedging(m.Quantile); err != nil {
			return nil, err
		}
		f.predictive = true
	default:
		return nil, fmt.Errorf("clusterdes: unsupported mitigation %q", opts.Mitigation.Name())
	}

	if opts.Resilience.Enabled() {
		r, err := resilience.Resolve(*opts.Resilience)
		if err != nil {
			return nil, fmt.Errorf("clusterdes: %w", err)
		}
		f.resil = &r
	}

	if opts.Faults.Enabled() {
		fo, err := faults.Resolve(*opts.Faults)
		if err != nil {
			return nil, fmt.Errorf("clusterdes: %w", err)
		}
		f.faultOpts = &fo
	}
	if f.predictive {
		f.suspect = make([]bool, len(opts.Nodes))
		f.predEwma = make([]float64, len(opts.Nodes))
	}
	flat := make([]int32, 2*len(opts.Nodes))
	f.committed, f.hedgeBars = flat[:len(opts.Nodes):len(opts.Nodes)], flat[len(opts.Nodes):]

	for i, nc := range opts.Nodes {
		n, err := newNode(i, nc, opts.MaxQueue, f)
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		f.fleetCap += n.capacity
	}

	f.active = len(f.nodes)
	if opts.Autoscale != nil {
		if err := f.initAutoscale(*opts.Autoscale); err != nil {
			return nil, err
		}
	}
	for i, n := range f.nodes {
		n.state.Active = i < f.active
	}
	if opts.Learn != nil {
		if err := f.initLearn(*opts.Learn); err != nil {
			return nil, err
		}
	}
	f.stats.FirstScaleUpInterval = -1
	f.stats.FirstPredictInterval = -1
	f.stats.PeakActive, f.stats.MinActive = f.active, f.active
	f.states = make([]cluster.NodeState, len(f.nodes))
	f.samples = make([]telemetry.Sample, len(f.nodes))
	f.pool = cluster.NewPool(f.workers)
	f.sumFn = func(i int) { f.samples[i] = f.nodes[i].finishInterval(f.tEnd, f.committed[i] > 0) }
	f.newDomains(opts.Domains)
	return f, nil
}

// enableHedging turns hedging on at quantile q of the previous
// interval's sojourns: 0 selects DefaultHedgeQuantile, anything else
// must lie in (0, 1). Hedged and Predictive share it.
func (f *Fleet) enableHedging(q float64) error {
	if q == 0 {
		q = DefaultHedgeQuantile
	}
	if q <= 0 || q >= 1 {
		return fmt.Errorf("clusterdes: hedge quantile %v out of (0, 1)", q)
	}
	f.hedging = true
	f.hedgeQ = q
	return nil
}

// newDomains partitions the roster into dcount routing domains (0
// counts as 1) and builds each one's loop, with RNG streams derived
// from Seed+domain. With one domain the fleet-wide loop draws from the
// Seed+0 streams, its λ thinning multiplies by exactly 1 (see
// refreshInterval), and cross-domain deferral is off, so nothing
// crosses a domain boundary.
func (f *Fleet) newDomains(dcount int) {
	starts := PartitionDomains(len(f.nodes), dcount)
	f.domOf = make([]int32, len(f.nodes))
	for k := 0; k+1 < len(starts); k++ {
		lo, hi := starts[k], starts[k+1]
		l := &loop{
			id:          k,
			lo:          lo,
			nodes:       f.nodes[lo:hi],
			settings:    f.settings,
			hedgeWait:   math.Inf(1),
			suspectWait: math.Inf(1),
			deferCross:  len(starts) > 2,
			arrRNG:      sim.SubRNG(f.opts.Seed+int64(k), "des-arrival"),
			routeRNG:    sim.SubRNG(f.opts.Seed+int64(k), "des-route"),
			svcRNG:      sim.SubRNG(f.opts.Seed+int64(k), "des-service"),
			retryRNG:    sim.SubRNG(f.opts.Seed+int64(k), "des-retry"),
			events:      newEventQueue(),
			lat:         newLatRecorder(),
		}
		l.shares, l.cumShares = newShares(hi - lo)
		l.guide = make([]int32, hi-lo)
		for i := lo; i < hi; i++ {
			f.domOf[i] = int32(k)
		}
		f.domains = append(f.domains, l)
	}
	f.stepFn = func(i int) { f.domains[i].runInterval(f.tEnd) }
	f.updateActive()
}

// newShares allocates a loop's routing weights and their running sums
// together.
func newShares(n int) (shares, cum []float64) {
	buf := make([]float64, 2*n)
	return buf[:n:n], buf[n:]
}

func (f *Fleet) domainOf(id int) *loop { return f.domains[f.domOf[id]] }

// updateActive pushes the fleet-wide active count down into the
// domains. The active set is a roster prefix and domains are
// contiguous roster blocks, so each domain's active set is a prefix of
// its own slice.
func (f *Fleet) updateActive() {
	for _, l := range f.domains {
		a := f.active - l.lo
		if a < 0 {
			a = 0
		}
		if a > len(l.nodes) {
			a = len(l.nodes)
		}
		l.active = a
		l.rosterActive = f.active
	}
}

func newNode(id int, nc NodeConfig, maxQueue int, f *Fleet) (*desNode, error) {
	if nc.Spec == nil {
		return nil, fmt.Errorf("clusterdes: node %d: nil platform spec", id)
	}
	if nc.Workload == nil {
		return nil, fmt.Errorf("clusterdes: node %d: nil workload", id)
	}
	if err := nc.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("clusterdes: node %d: %w", id, err)
	}
	cfg := platform.Config{NBig: nc.Spec.Big.Cores, BigFreq: nc.Spec.Big.MaxFreq()}
	if nc.Config != nil {
		cfg = nc.Config.Normalize(nc.Spec)
	}
	if err := cfg.Validate(nc.Spec); err != nil {
		return nil, fmt.Errorf("clusterdes: node %d: %w", id, err)
	}
	n := &desNode{
		id:    id,
		spec:  nc.Spec,
		wl:    nc.Workload,
		cfg:   cfg,
		trace: &telemetry.Trace{},
	}
	n.bigSlots = nc.Spec.Big.Cores
	slots := nc.Spec.Big.Cores + nc.Spec.Small.Cores
	n.servers = make([]queueing.Server, slots)
	n.dists = make([]stats.LogNormal, slots)
	// enabled and idle share one allocation; the fleet's AppendServers
	// scratch is threaded through so per-node construction costs no
	// extra allocations over the pre-reconfigurable layout.
	bools := make([]bool, 2*slots)
	n.enabled, n.idle = bools[:slots:slots], bools[slots:]
	f.svScratch = n.applyConfig(cfg, f.svScratch)
	for i := range n.idle {
		n.idle[i] = true
	}
	n.serving = make([]int32, len(n.servers))
	for i := range n.serving {
		n.serving[i] = -1
	}
	n.svcSeq = make([]int32, len(n.servers))
	if r := f.resil; r != nil {
		if r.Breaker != nil {
			n.breaker = resilience.NewBreaker(*r.Breaker)
		}
		if r.RateLimit != nil {
			n.bucket = resilience.NewTokenBucket(*r.RateLimit)
		}
		n.hedgeLeft = r.HedgeBudget
	}
	n.busy = make([]float64, len(n.servers))
	n.busyUntil = make([]float64, len(n.servers))
	n.maxQueue = maxQueue
	if n.maxQueue == 0 {
		n.maxQueue = int(math.Max(64, nc.Workload.BacklogCapSecs*n.capacity*4))
	}
	n.bigUtils = make([]float64, nc.Spec.Big.Cores)
	n.smallUtils = make([]float64, nc.Spec.Small.Cores)
	n.state = cluster.NodeState{ID: id, CapacityRPS: n.capacity}
	return n, nil
}

// initAutoscale builds the shared scaler from the options' controller
// fields and validates the warm-up, which only the DES models.
func (f *Fleet) initAutoscale(opts AutoscaleOptions) error {
	scaler, initial, err := cluster.NewScaler(cluster.AutoscaleOptions{
		Policy:             opts.Policy,
		MinNodes:           opts.MinNodes,
		MaxNodes:           opts.MaxNodes,
		InitialNodes:       opts.InitialNodes,
		CooldownIntervals:  opts.CooldownIntervals,
		DownAfterIntervals: opts.DownAfterIntervals,
	}, len(f.nodes))
	if err != nil {
		return err
	}
	if opts.WarmupIntervals < 0 {
		return fmt.Errorf("clusterdes: negative warm-up %d", opts.WarmupIntervals)
	}
	if opts.WarmupFactor < 0 || opts.WarmupFactor >= 1 {
		return fmt.Errorf("clusterdes: warm-up factor %v out of [0, 1)", opts.WarmupFactor)
	}
	f.scaler = scaler
	f.warmupIvs = opts.WarmupIntervals
	f.warmFactor = opts.WarmupFactor
	f.active = initial
	return nil
}

// NumNodes returns the roster size.
func (f *Fleet) NumNodes() int { return len(f.nodes) }

// ActiveNodes returns the current active-node count.
func (f *Fleet) ActiveNodes() int { return f.active }

// Workers returns the resolved worker count (never zero).
func (f *Fleet) Workers() int { return f.workers }

// CapacityRPS returns the total roster capacity at the configured
// per-node configurations.
func (f *Fleet) CapacityRPS() float64 { return f.fleetCap }

// alloc takes a request id from the free list or grows the table.
func (l *loop) alloc(t float64, node int32) int32 {
	if n := len(l.free); n > 0 {
		id := l.free[n-1]
		l.free = l.free[:n-1]
		l.reqs[id] = request{arrival: t, node: node, hedgeNode: -1}
		return id
	}
	l.reqs = append(l.reqs, request{arrival: t, node: node, hedgeNode: -1})
	return int32(len(l.reqs) - 1)
}

// release drops one reference; a finished request with no references
// left returns to the free list.
func (l *loop) release(id int32) {
	r := &l.reqs[id]
	r.refs--
	if r.refs == 0 && r.done {
		l.free = append(l.free, id)
	}
}

// svcSample draws a service duration for server s of node n.
func (l *loop) svcSample(n *desNode, s int) float64 {
	d := n.dists[s]
	if d.Sigma == 0 {
		return 1 / n.servers[s].Rate
	}
	return math.Exp(d.Mu + d.Sigma*l.svcRNG.NormFloat64())
}

// startService puts request id on server s of node n. A warming node's
// service is stretched by 1/WarmupFactor; callers never start service
// on a warming node when the factor is 0. Busy time is charged to the
// current interval only up to its boundary; finishInterval carries the
// remainder of a spanning service into the following intervals, so
// utilisation and power land in the interval the server was actually
// busy.
func (l *loop) startService(n *desNode, s int, id int32, t float64) {
	n.idle[s] = false
	l.committed[n.id]++
	n.serving[s] = id
	l.reqs[id].refs++
	d := l.svcSample(n, s)
	if n.warmLeft > 0 {
		d /= l.warmFactor
	}
	if n.slow > 0 {
		d /= n.slow
	}
	end := t + d
	n.busyUntil[s] = end
	n.busy[s] += math.Min(end, l.tickEnd) - t
	l.events.heap.Push(end, event{kind: evCompletion, a: int32(n.id), b: int32(s), c: n.svcSeq[s]})
}

// cancelService abandons the service in flight on server s of node n at
// time t and lets the freed server pull its next request.
func (l *loop) cancelService(n *desNode, s int, t float64) {
	l.release(l.stopService(n, s, t))
	l.pullWork(n, s, t)
}

// stopService tears down the service in flight on server s of node n
// at time t: the already-scheduled completion event is stranded by
// bumping the slot's service sequence (the heap needs no deletions),
// and the interval's busy charge is trimmed back to the time actually
// served. It returns the request the slot was serving; the caller
// releases the slot's reference.
func (l *loop) stopService(n *desNode, s int, t float64) int32 {
	id := n.serving[s]
	n.serving[s] = -1
	n.svcSeq[s]++
	l.committed[n.id]--
	if over := math.Min(n.busyUntil[s], l.tickEnd) - t; over > 0 {
		n.busy[s] -= over
	}
	n.busyUntil[s] = t
	return id
}

// cancelCopy cancels request id's in-service copy on node n, if one
// exists; a queued copy needs no action — the entry's done flag voids
// it lazily at popLocal. Reports whether a service was cancelled.
func (l *loop) cancelCopy(n *desNode, id int32, t float64) bool {
	for s, sid := range n.serving {
		if sid == id {
			l.cancelService(n, s, t)
			return true
		}
	}
	return false
}

// fastestIdle returns the idle enabled server with the highest rate,
// -1 if all are busy (pools are tiny: at most 6 slots on Juno).
func (n *desNode) fastestIdle() int {
	best := -1
	for i, ok := range n.idle {
		if !ok || !n.enabled[i] {
			continue
		}
		if best == -1 || n.servers[i].Rate > n.servers[best].Rate {
			best = i
		}
	}
	return best
}

// dispatch routes one copy of request id to node n: straight to the
// fastest idle server when one exists (and the node is serving), else
// onto the queue. It reports false when the queue bound drops the copy.
func (l *loop) dispatch(n *desNode, id int32, t float64) bool {
	if n.down || n.draining {
		return false
	}
	if n.warmLeft == 0 || l.warmFactor > 0 {
		if s := n.fastestIdle(); s >= 0 {
			l.startService(n, s, id, t)
			return true
		}
	}
	if n.queue.Len() >= n.maxQueue {
		return false
	}
	l.enqueue(n, id)
	l.reqs[id].refs++
	return true
}

// enqueue appends request id to node n's queue. enqueue and dequeue
// are the only code that changes a queue, so the loop's deep count and
// the node's committed count stay exact.
func (l *loop) enqueue(n *desNode, id int32) {
	n.queue.Push(id)
	l.committed[n.id]++
	if n.queue.Len() == l.minDepth {
		l.deep++
	}
}

// dequeue pops the oldest entry of node n's queue, live or not; see
// enqueue.
func (l *loop) dequeue(n *desNode) int32 {
	if n.queue.Len() == l.minDepth {
		l.deep--
	}
	l.committed[n.id]--
	return n.queue.Pop()
}

// popLocal pops the oldest live request off n's queue (see liveHead).
// Returns -1 when no live request is queued.
func (l *loop) popLocal(n *desNode) int32 {
	id := l.liveHead(n)
	if id >= 0 {
		l.dequeue(n)
		l.release(id)
	}
	return id
}

// liveHead returns the oldest live request on n's queue without
// popping it, after lazily discarding the entries at the head whose
// request already completed elsewhere (a won hedge race, a steal or a
// deadline expiry). Returns -1 when no live request is queued.
func (l *loop) liveHead(n *desNode) int32 {
	for n.queue.Len() > 0 {
		id := n.queue.Peek()
		if !l.reqs[id].done {
			return id
		}
		l.dequeue(n)
		l.release(id)
	}
	return -1
}

// steal pulls the oldest request from the deepest queue in the loop's
// active set (at least minDepth deep), -1 when nothing is worth
// stealing. Warming victims are fair game — their queue is exactly the
// transient stealing exists to drain. Mid-interval steals stay inside
// the loop's own domain; cross-domain steals happen only at interval
// boundaries, through the coordinator. Every victim needs a queue at
// least minDepth deep, so with no such queue in the loop the answer is
// -1 without a scan.
func (l *loop) steal(thief *desNode) int32 {
	if l.deep == 0 {
		return -1
	}
	if v := l.deepest(l.nodes[:l.active], thief); v != nil {
		return l.popLocal(v)
	}
	return -1
}

// deepest returns the steal victim for thief among cands: the deepest
// queue of at least minDepth, skipping the thief and down or draining
// nodes and staying on the thief's side of any partition; on a tie the
// first in candidate order (the smallest id) wins. nil when no queue
// qualifies. loop.steal scans its domain; the boundary sweep scans the
// fleet while a partition rules out its steal heap.
func (l *loop) deepest(cands []*desNode, thief *desNode) *desNode {
	var best *desNode
	depth := l.minDepth - 1
	for _, v := range cands {
		if v == thief || v.down || v.draining || !l.sameSide(v.id, thief.id) {
			continue
		}
		if v.queue.Len() > depth {
			depth = v.queue.Len()
			best = v
		}
	}
	return best
}

// pullWork hands server s of node n its next request after a
// completion: local queue first, then a cross-node steal when the
// mitigation allows. Warming and deactivated nodes do not pull, and
// neither does a slot the current configuration disabled — that is how
// a reconfigured-away core drains. (The active check is against the
// fleet-wide roster — node ids are global and the active set is a
// roster prefix.)
func (l *loop) pullWork(n *desNode, s int, t float64) {
	if l.mayServe(n, s) {
		if id := l.popLocal(n); id >= 0 {
			l.startService(n, s, id, t)
			return
		}
		if l.maySteal(n) {
			if id := l.steal(n); id >= 0 {
				l.startStolen(n, s, id, t)
				return
			}
		}
	}
	n.idle[s] = true
}

// mayServe reports whether server s of node n may pull work: its slot
// is enabled, the node is active and up, and it is not warming at a
// zero warm-up factor. A draining (spot-notice) node still serves its
// own residual queue — the notice window exists to finish work.
func (l *loop) mayServe(n *desNode, s int) bool {
	return n.enabled[s] && n.id < l.rosterActive && !n.down &&
		(n.warmLeft == 0 || l.warmFactor > 0)
}

// maySteal reports whether node n, serving but with its own queue empty,
// may steal: stealing is on and n is neither warming nor draining.
func (l *loop) maySteal(n *desNode) bool {
	return l.stealing && n.warmLeft == 0 && !n.draining
}

// startStolen starts request id, stolen from a node of this loop, on
// server s of thief n and counts the steal. The thief owns the copy
// now; a later deadline expiry must cancel the service where it
// actually runs.
func (l *loop) startStolen(n *desNode, s int, id int32, t float64) {
	l.steals++
	l.reqs[id].node = int32(n.id)
	l.startService(n, s, id, t)
}

// routeDraw picks a node by one draw over the interval's routing
// weights (zero-share nodes — including down and draining ones, whose
// shares the refresh zeroes — are never selected). The all-zero-weight
// fallback draws from the retry stream — only re-issued attempts reach
// it; primary arrivals use their own round-robin fallback so existing
// runs are untouched. Returns nil only when no active node can take
// new work; callers with servingN > 0 always get a node.
func (l *loop) routeDraw() *desNode {
	if l.shareSum > 0 {
		return l.nodes[l.routeIndex(l.routeRNG.Float64()*l.shareSum)]
	}
	return l.fallbackNode(int(l.retryRNG.Int63n(int64(l.active))))
}

// routeIndex returns the first active node whose running share sum
// exceeds u. The walk starts at the guide entry of u's bucket — bucket
// k spans [k, k+1)·shareSum/active — steps back while the previous
// running sum exceeds u, then forward while its own does not, so it
// lands on that first node whatever the rounding of the bucket; an
// index is walked over only by draws in the bucket its running sum
// falls in, so a draw takes O(1) steps in expectation for any share
// vector. A zero-share node's running sum equals its predecessor's, so
// it is never the first; when u rounds up to shareSum no sum exceeds it
// and the last positive-share node takes the draw. shareSum must be
// positive.
func (l *loop) routeIndex(u float64) int {
	cum := l.cumShares[:l.active]
	// Written so that NaN or +Inf (a subnormal shareSum) also picks the
	// last bucket.
	k := len(cum) - 1
	if x := u * l.guideScale; x < float64(k) {
		k = int(x)
	}
	i := int(l.guide[k])
	for i > 0 && u < cum[i-1] {
		i--
	}
	for i < len(cum) && !(u < cum[i]) {
		i++
	}
	if i == len(cum) {
		for i--; l.shares[i] <= 0; i-- {
		}
	}
	return i
}

// setShare records active node i's routing weight for the interval and
// extends the running sums routeIndex walks. Callers set shares in
// index order after zeroing shareSum, then call buildGuide.
func (l *loop) setShare(i int, s float64) {
	l.shares[i] = s
	l.shareSum += s
	l.cumShares[i] = l.shareSum
}

// buildGuide rebuilds routeIndex's guide table over the active prefix
// from the running sums setShare left, in one merged pass.
func (l *loop) buildGuide() {
	a := l.active
	step := l.shareSum / float64(a)
	l.guideScale = float64(a) / l.shareSum
	j := 0
	for k := 0; k < a; k++ {
		x := float64(k) * step
		for j < a-1 && !(l.cumShares[j] > x) {
			j++
		}
		l.guide[k] = int32(j)
	}
}

// fallbackNode walks the active prefix round-robin from slot k to the
// first node that can take new work, nil when every active node is
// down or draining. Without faults it returns nodes[k%active] — the
// pre-fault fallback — unchanged.
func (l *loop) fallbackNode(k int) *desNode {
	for i := 0; i < l.active; i++ {
		n := l.nodes[(k+i)%l.active]
		if !n.down && !n.draining {
			return n
		}
	}
	return nil
}

// sameSide reports whether nodes a and b can exchange work under the
// current partition (always true without one).
func (l *loop) sameSide(a, b int) bool {
	return l.partCut == 0 || (a < l.partCut) == (b < l.partCut)
}

// admit runs node n's admission policies for one attempt of request id
// at time t; a refused attempt goes down the retry-or-drop path.
func (l *loop) admit(n *desNode, id int32, t float64) bool {
	if n.breaker != nil && !n.breaker.Allow() {
		l.failAttempt(id, t)
		return false
	}
	if n.bucket != nil && !n.bucket.Allow(t) {
		l.rateLimited++
		l.failAttempt(id, t)
		return false
	}
	return true
}

// armDeadline schedules request id's per-attempt deadline.
func (l *loop) armDeadline(id int32, t float64) {
	if l.resil == nil || l.resil.Timeout <= 0 {
		return
	}
	l.reqs[id].refs++
	l.events.arm(t+l.resil.Timeout, evTimeout, id)
}

// failAttempt resolves a failed delivery attempt (admission refusal or
// queue-cap rejection) of request id at time t: schedule a backed-off
// retry while the budget lasts, else the request is finally dropped.
// The failed attempt must hold no references when called.
func (l *loop) failAttempt(id int32, t float64) {
	r := &l.reqs[id]
	if l.resil != nil && int(r.attempts) < l.resil.MaxRetries {
		d := l.resil.Backoff.Delay(int(r.attempts), l.retryRNG.Float64())
		r.attempts++
		r.refs++
		l.retries++
		l.events.heap.Push(t+d, event{kind: evRetry, a: id})
		return
	}
	r.done = true
	l.dropped++
	if r.refs == 0 {
		l.free = append(l.free, id)
	}
}

// handleArrival processes one domain-level arrival at the pending
// arrival time and draws the next one.
func (l *loop) handleArrival() {
	t := l.nextArrival
	l.nextArrival = t + l.arrRNG.ExpFloat64()/l.lambda
	// Route by one draw over the interval's splitter weights.
	var n *desNode
	if l.shareSum > 0 {
		n = l.routeDraw()
	} else {
		n = l.fallbackNode(l.primaries)
	}
	l.primaries++
	if n == nil {
		// Every active node is down or draining: the arrival has nowhere
		// to land and is dropped at the fleet's front door.
		l.dropped++
		return
	}
	id := l.alloc(t, int32(n.id))
	if l.resil != nil && !l.admit(n, id, t) {
		return
	}
	n.arrived++
	if !l.dispatch(n, id, t) {
		if l.resil != nil {
			if n.breaker != nil {
				n.breaker.Record(false)
			}
			l.failAttempt(id, t)
			return
		}
		l.reqs[id].done = true
		l.free = append(l.free, id)
		l.dropped++
		return
	}
	l.armDeadline(id, t)
	// The hedge gate is fleet-wide: with one active node in this domain
	// but more elsewhere, the timer still arms — the coordinator can
	// place the copy across the boundary.
	if l.hedging && !math.IsInf(l.hedgeWait, 1) && l.rosterActive > 1 {
		wait := l.hedgeWait
		// Predictive mitigation: a request routed to a flagged node gets
		// its hedge armed at a fraction of the reactive delay — the copy
		// races before the slow node's tail ever shows in telemetry.
		if l.suspect != nil && l.suspect[n.id] && !math.IsInf(l.suspectWait, 1) {
			wait = l.suspectWait
		}
		l.reqs[id].refs++
		l.events.arm(t+wait, evHedge, id)
	}
}

// handleCompletion finishes the request on server b of node a. Only the
// first copy to finish records the sojourn; late copies just free their
// server. A copy of a cross-domain pair records nothing here — the
// partner copy may have finished earlier in its own domain, so the race
// is decided at the coordinator's boundary reconciliation, where both
// domains' completions are visible.
func (l *loop) handleCompletion(t float64, ev event) {
	n := l.node(ev.a)
	s := int(ev.b)
	if ev.c != n.svcSeq[s] {
		return // the service was cancelled; this completion is stranded
	}
	id := n.serving[s]
	n.serving[s] = -1
	l.committed[n.id]--
	r := &l.reqs[id]
	switch {
	case r.done:
	case r.deferRec:
		ce := crossEvent{dom: int32(l.id), id: id, t: t, node: int32(n.id), mirror: r.mirror}
		if r.mirror {
			ce.dom, ce.id = r.crossDom, r.crossRef
		}
		l.crossDone = append(l.crossDone, ce)
	default:
		r.done = true
		soj := t - r.arrival
		n.completed++
		n.sojourns = append(n.sojourns, soj)
		if l.hedging {
			// Only the next interval's hedge delay reads these.
			l.intervalSojourns = append(l.intervalSojourns, soj)
		}
		l.lat.record(soj)
		if r.hedgeNode == int32(n.id) {
			l.hedgeWins++
		}
		if n.breaker != nil {
			n.breaker.Record(true)
		}
		// Hedge cancellation: the race is decided, so the losing copy's
		// server slot is reclaimed instead of running to completion.
		// Both copies of an in-domain pair live on this loop's nodes.
		if l.resil != nil && l.resil.CancelHedges && r.hedgeNode >= 0 {
			loser := r.hedgeNode
			if loser == int32(n.id) {
				loser = r.node
			}
			if l.cancelCopy(l.node(loser), id, t) {
				l.hedgeCancels++
			}
		}
	}
	l.release(id)
	l.pullWork(n, s, t)
}

// handleTimeout fires request id's per-attempt deadline. A cross-pair
// origin parks the expiry for the coordinator's reconciliation (the
// mirror domain may have completed it first); otherwise the attempt is
// abandoned here: in-service copies release their servers, queued
// copies void lazily, and the request respawns as a retry or counts
// timed out.
func (l *loop) handleTimeout(t float64, ev event) {
	id := ev.a
	r := &l.reqs[id]
	switch {
	case r.done:
	case r.deferRec:
		l.crossDone = append(l.crossDone, crossEvent{
			dom: int32(l.id), id: id, t: t, node: r.node, timeout: true,
		})
	default:
		l.expire(id, t)
	}
	l.release(id)
}

// expire abandons every copy of request id at time t and either
// respawns the request as a fresh entry carrying the original arrival
// time and attempt count (so end-to-end latency spans all attempts) or
// records it timed out. A fresh entry sidesteps any stale queued copy
// of the old id: the old entry is done, so its copies void lazily.
func (l *loop) expire(id int32, t float64) {
	r := &l.reqs[id]
	l.timeouts++
	pn := l.node(r.node)
	if pn.breaker != nil {
		pn.breaker.Record(false)
	}
	l.cancelCopy(pn, id, t)
	if hn := r.hedgeNode; hn >= 0 && hn != r.node {
		l.cancelCopy(l.node(hn), id, t)
	}
	arrival, attempts := r.arrival, r.attempts
	r.done = true
	if int(attempts) < l.resil.MaxRetries {
		// alloc may grow the table; r is dead past this point.
		nid := l.alloc(arrival, -1)
		l.reqs[nid].attempts = attempts
		l.failAttempt(nid, t) // attempts < budget: always schedules the retry
	} else {
		l.timedOut++
	}
}

// handleRetry re-issues a backed-off attempt of request id: a fresh
// routing draw over the current weights, then admission, dispatch and
// deadline exactly like a primary arrival (but never counted a primary,
// and never hedged — hedging speculates on healthy requests, not ones
// already failing). The retry timer is the entry's only reference while
// it waits.
func (l *loop) handleRetry(t float64, ev event) {
	id := ev.a
	r := &l.reqs[id]
	l.release(id) // the timer's reference; done is false, so the entry stays
	if l.active == 0 || l.servingN == 0 {
		// The domain lost every active node (to scale-down, crashes or
		// revocations) while the retry waited; look again once the
		// backoff cap has passed — the roster can regrow or recover.
		r.refs++
		l.events.heap.Push(t+l.resil.Backoff.Cap, event{kind: evRetry, a: id})
		return
	}
	n := l.routeDraw()
	r.node = int32(n.id)
	if !l.admit(n, id, t) {
		return
	}
	n.arrived++
	if !l.dispatch(n, id, t) {
		if n.breaker != nil {
			n.breaker.Record(false)
		}
		l.failAttempt(id, t)
		return
	}
	l.armDeadline(id, t)
}

// handleHedge fires a request's hedge timer: if it is still in flight,
// issue one copy to the least-committed other active node of this
// domain. With deferCross set (multi-domain runs) and no in-domain
// candidate, the re-issue is parked in the boundary outbox instead —
// the coordinator can place the copy in another domain, paying at most
// one interval of extra delay for not sharing mid-interval state.
func (l *loop) handleHedge(t float64, ev event) {
	id := ev.a
	r := &l.reqs[id]
	if !r.done && r.hedgeNode == -1 {
		if target := l.hedgeTarget(l.lo, l.lo+l.active, r); target >= 0 {
			l.issueHedge(l.node(int32(target)), id, t)
		} else if l.deferCross {
			// The timer's reference rides along into the outbox.
			l.deferredHedges = append(l.deferredHedges, id)
			return
		}
	}
	l.finishHedgeRef(id)
}

// finishHedgeRef releases request id's hedge-timer reference, after
// the timer fired or its parked re-issue was placed at a boundary. The
// timer can be a request's last reference: a scale-down migration that
// failed re-dispatch leaves the request alive only for this re-issue
// (see migrate). If the re-issue also failed — no eligible second
// node, or its queue full — the request is truly lost and must be
// counted and recycled, not leaked.
func (l *loop) finishHedgeRef(id int32) {
	r := &l.reqs[id]
	l.release(id)
	if r.refs == 0 && !r.done {
		r.done = true
		l.dropped++
		l.free = append(l.free, id)
	}
}

// hedgeTarget returns the global id of the node that takes request r's
// hedge copy among the ids [lo, hi): the first with the least committed
// work (queue plus busy servers) among the nodes without a hedge bar,
// skipping the primary's node r.node and, under a partition, the other
// side, which narrows the range because each side is a contiguous id
// range. It returns -1 when no node may take the copy. handleHedge
// passes its domain's active range, placeHedges the fleet's.
func (l *loop) hedgeTarget(lo, hi int, r *request) int {
	if cut := l.partCut; cut != 0 {
		if int(r.node) < cut {
			hi = min(hi, cut)
		} else {
			lo = max(lo, cut)
		}
	}
	if lo >= hi {
		return -1
	}
	best, bestKey := -1, int32(hedgeBar)
	committed, skip := l.committed[lo:hi], int(r.node)-lo
	bars := l.hedgeBars[lo:hi]
	bars = bars[:len(committed)] // lets the compiler drop the loop's bounds checks
	for j, c := range committed {
		if k := c + bars[j]; k < bestKey && j != skip {
			best, bestKey = j, k
		}
	}
	if best < 0 {
		return -1
	}
	return lo + best
}

// issueHedge sends request id's hedge copy to target, a node of this
// loop, and counts it when the copy lands.
func (l *loop) issueHedge(target *desNode, id int32, t float64) {
	l.reqs[id].hedgeNode = int32(target.id)
	if l.dispatch(target, id, t) {
		target.arrived++
		l.hedges++
		l.spendHedgeBudget(target)
	}
}

// eligible reports whether node v may receive work originating on node
// from — a hedge copy, a migrated or re-homed request: up, not
// draining, not a predictive suspect, and on from's side of any
// partition. Without faults or the predictive detector it is always
// true.
func (l *loop) eligible(v *desNode, from int) bool {
	if v.down || v.draining {
		return false
	}
	if l.suspect != nil && l.suspect[v.id] {
		return false
	}
	return l.sameSide(v.id, from)
}

// spendHedgeBudget charges one issued hedge copy to node v's budget and
// bars v from further copies once the budget is spent. The budget is
// the only hedge bar that changes between boundaries.
func (l *loop) spendHedgeBudget(v *desNode) {
	if l.resil != nil && l.resil.HedgeBudget > 0 {
		v.hedgeLeft--
		if v.hedgeLeft <= 0 {
			l.hedgeBars[v.id] = hedgeBar
		}
	}
}

// rebuildHedgeBars sets every node's hedge bar from its state at this
// boundary, after the resilience roll, the warm-up countdown, faults,
// the detector and autoscale. A node is barred while it is warming,
// down, draining or a predictive suspect, and — hedge copies skip full
// admission; they are the mitigation's own traffic, rationed by the
// budget instead — while its per-interval hedge budget is spent or its
// breaker is open. Only the budget changes again before the next
// boundary, and spendHedgeBudget keeps it.
func (f *Fleet) rebuildHedgeBars() {
	for i, n := range f.nodes {
		barred := n.warmLeft > 0 || n.down || n.draining || (f.suspect != nil && f.suspect[i])
		if r := f.resil; r != nil {
			barred = barred || (r.HedgeBudget > 0 && n.hedgeLeft <= 0) ||
				(n.breaker != nil && n.breaker.State() == resilience.BreakerOpen)
		}
		f.hedgeBars[i] = 0
		if barred {
			f.hedgeBars[i] = hedgeBar
		}
	}
}

// latSampleCap bounds the end-to-end latency sample. 1<<22 float64s is
// 32 MB — far above any Web-Search-scale run (those stay exact), and a
// systematic every-k-th sample of the completion stream beyond it.
const latSampleCap = 1 << 22

// record folds one winning sojourn into the end-to-end record.
func (lr *latRecorder) record(soj float64) {
	lr.seen++
	lr.sum += soj
	if lr.seen%lr.stride != 0 {
		return
	}
	b := lr.n >> latBlockBits
	if b == len(lr.blocks) {
		var blk []float64
		if b > 0 {
			blk = make([]float64, 0, latBlockLen)
		}
		lr.blocks = append(lr.blocks, blk)
	}
	blk := lr.blocks[b]
	if len(blk) == cap(blk) {
		// Only the first block fills below the block length. It doubles
		// from 256, allocating under twice the 512 KiB it ends up
		// keeping; append's growth would allocate 4.8 times that.
		blk = append(make([]float64, 0, min(max(2*cap(blk), 256), latBlockLen)), blk...)
	}
	lr.blocks[b] = append(blk, soj)
	lr.n++
	if lr.n >= lr.limit {
		lr.decimate()
	}
}

// decimate halves the kept sample in place: keeping every 2nd kept
// element (s[i] = s[2i+1] over logical indices, across block edges)
// turns a stride-k systematic sample into a stride-2k one. Each block
// is re-sliced to its share of the new length and keeps its storage.
func (lr *latRecorder) decimate() {
	half := lr.n / 2
	for i := 0; i < half; i++ {
		j := 2*i + 1
		lr.blocks[i>>latBlockBits][i&latBlockMask] = lr.blocks[j>>latBlockBits][j&latBlockMask]
	}
	for b := range lr.blocks {
		lr.blocks[b] = lr.blocks[b][:min(max(half-b<<latBlockBits, 0), latBlockLen)]
	}
	lr.n = half
	lr.stride *= 2
}

// appendSample appends the kept sample, in order, to dst.
func (lr *latRecorder) appendSample(dst []float64) []float64 {
	for _, blk := range lr.blocks {
		dst = append(dst, blk...)
	}
	return dst
}

// runInterval drains the loop's events and arrival process up to the
// interval boundary tTick, in event-time order. Three sources feed it:
// the event heap, the deadline and hedge timer lanes, and the next
// arrival. eventQueue.next picks the earliest queued event, and the
// arrival goes first only when strictly earlier, so equal times go to
// the heap top, then the deadline lane, then the hedge lane, and the
// arrival last. (Comparing the arrival here, not inside next, keeps
// one data-dependent branch per event.) This is the whole of a
// domain's work between two boundaries: it reads and writes only the
// loop's own state, which is what lets a sharded run step every domain
// in parallel.
func (l *loop) runInterval(tTick float64) {
	l.tickEnd = tTick
	for {
		src, t := l.events.next()
		if l.nextArrival < t {
			if l.nextArrival >= tTick {
				return
			}
			l.handleArrival()
			continue
		}
		if t >= tTick {
			return
		}
		var ev event
		if src == srcHeap {
			t, ev = l.events.heap.Pop()
		} else {
			t, ev = l.events.popTimer()
		}
		switch ev.kind {
		case evCompletion:
			l.handleCompletion(t, ev)
		case evHedge:
			l.handleHedge(t, ev)
		case evTimeout:
			l.handleTimeout(t, ev)
		default:
			l.handleRetry(t, ev)
		}
	}
}

// refreshInterval sets up the interval starting at t: one fleet-wide
// splitter call in roster order, then per-domain λ thinning — each
// domain's arrival rate is the fleet rate scaled by its share of the
// routing weight, so the fleet-wide arrival process is preserved in
// expectation while every draw stays inside one domain's RNG stream.
func (f *Fleet) refreshInterval(t float64) error {
	load := f.opts.Pattern.LoadAt(t)
	lambda := load * f.fleetCap
	fleetServing := 0
	for _, l := range f.domains {
		l.servingN = 0
	}
	for _, n := range f.nodes[:f.active] {
		if !n.down && !n.draining {
			f.domainOf(n.id).servingN++
			fleetServing++
		}
	}
	if fleetServing == 0 {
		// Blackout: every active node is down or draining. No arrivals are
		// admitted (clients see a dead cluster, not an infinite queue);
		// pending retries re-probe at the backoff cap until capacity
		// returns.
		lambda = 0
	}
	for i, n := range f.nodes[:f.active] {
		f.states[i] = n.state
	}
	shares, err := cluster.SplitChecked(f.splitter, load, cluster.SplitContext{
		Interval: f.clock.Steps(),
		T:        t,
		TotalRPS: lambda,
		Nodes:    f.states[:f.active],
	})
	if err != nil {
		return fmt.Errorf("clusterdes: %w", err)
	}
	var fleetSum float64
	for i, sh := range shares {
		// A down or draining node takes no new primaries regardless of
		// what the splitter assigned it; its share redistributes
		// implicitly, since routeDraw never picks a zero share.
		if v := f.nodes[i]; !v.down && !v.draining {
			fleetSum += sh
		}
	}
	for _, l := range f.domains {
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
		l.buildGuide()
		switch {
		case fleetSum > 0:
			// With one domain shareSum == fleetSum, so the ratio is
			// exactly 1.0 and λ survives bit-identical.
			l.lambda = lambda * (l.shareSum / fleetSum)
		case fleetServing > 0:
			// Zero routing weight everywhere: arrivals fall back to
			// round-robin over serving nodes; thin by serving share.
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

// finishInterval produces node n's telemetry sample for the interval
// ending at t and resets its per-interval scratch; inFlight reports
// queued or in-service work (a non-zero committed count). It touches
// only the node's own state plus pure model evaluations, so the
// coordinator runs it for all nodes in parallel.
func (n *desNode) finishInterval(t float64, inFlight bool) telemetry.Sample {
	if n.down {
		// Dead sample: a crashed or revoked node reports the tail cap —
		// the fleet observes it as a hard QoS failure (straggler signal,
		// autoscale pressure) rather than a vacuous pass — and draws no
		// power (its meter stops accumulating while it is off).
		s := telemetry.Sample{
			T:           t,
			TailLatency: n.wl.TailCapFactor * n.wl.TargetLatency,
			Target:      n.wl.TargetLatency,
			NBig:        n.cfg.NBig,
			NSmall:      n.cfg.NSmall,
			BigFreqMHz:  int(n.cfg.BigFreq),
			EnergyJ:     n.meter.TotalJ(),
		}
		n.trace.Add(s)
		n.state.Observe(s)
		n.discardResidue()
		return s
	}
	tail := 0.0
	if len(n.sojourns) > 0 {
		tail, _ = stats.SelectPercentile(n.sojourns, n.wl.QoSPercentile)
	} else if inFlight {
		// Work in flight but nothing completed: the load generator
		// observes timeouts, not silence — report the tail cap so a
		// warming node drowning under its queue reads as the straggler
		// it is instead of a vacuous QoS pass.
		tail = n.wl.TailCapFactor * n.wl.TargetLatency
	}
	if cap := n.wl.TailCapFactor * n.wl.TargetLatency; tail > cap {
		tail = cap
	}

	for i := range n.bigUtils {
		n.bigUtils[i] = 0
	}
	for i := range n.smallUtils {
		n.smallUtils[i] = 0
	}
	// Slot layout is big cores first; a draining disabled slot still
	// charges its core's utilisation here, because the core really is
	// executing until the in-flight service completes.
	for s := range n.busy {
		u := n.busy[s] / sim.IntervalSecs
		if u > 1 {
			u = 1
		}
		if s < n.bigSlots {
			n.bigUtils[s] = u
		} else {
			n.smallUtils[s-n.bigSlots] = u
		}
	}
	bigF := n.cfg.BigFreq
	if n.cfg.NBig == 0 {
		bigF = n.spec.Big.MinFreq()
	}
	breakdown := platform.SystemPower(n.spec, platform.Load{
		BigFreq:      bigF,
		SmallFreq:    n.spec.Small.MaxFreq(),
		BigUtils:     n.bigUtils,
		SmallUtils:   n.smallUtils,
		DeliveredIPS: float64(n.completed) * n.wl.DemandInstr / sim.IntervalSecs,
	})
	n.meter.Add(breakdown, sim.IntervalSecs)
	n.lastEnergyJ = n.meter.TotalJ()

	s := telemetry.Sample{
		T:           t,
		LoadFrac:    float64(n.arrived) / sim.IntervalSecs / n.capacity,
		OfferedRPS:  float64(n.arrived) / sim.IntervalSecs,
		AchievedRPS: float64(n.completed) / sim.IntervalSecs,
		Backlog:     float64(n.queue.Len()),
		TailLatency: tail,
		Target:      n.wl.TargetLatency,
		NBig:        n.cfg.NBig,
		NSmall:      n.cfg.NSmall,
		BigFreqMHz:  int(n.cfg.BigFreq),
		BigW:        breakdown.BigW,
		SmallW:      breakdown.SmallW,
		RestW:       breakdown.RestW,
		EnergyJ:     n.meter.TotalJ(),
	}
	n.trace.Add(s)
	n.state.Observe(s)

	n.arrived, n.completed = 0, 0
	n.sojourns = n.sojourns[:0]
	// A service spanning the boundary charges the next interval the
	// part of its duration that falls there (possibly the whole interval:
	// warm-up-stretched services can span several intervals).
	for i := range n.busy {
		n.busy[i] = 0
		if n.busyUntil[i] > t {
			n.busy[i] = math.Min(n.busyUntil[i]-t, sim.IntervalSecs)
		}
	}
	return s
}

// summarize runs finishInterval for every active node on the worker
// pool, for the interval ending at tEnd. Each node writes only its own
// slot and its own state, so results are independent of the worker
// count; the pool and its cached closure persist across boundaries, so
// a summary round allocates nothing.
func (f *Fleet) summarize() {
	f.pool.Do(f.active, f.sumFn)
}

// autoscaleStep fills the scaler's roster from the previous interval's
// measurements, runs one scaling decision and applies it through the
// shared Scaler, which warm-starts and flushes federated nodes exactly
// as the interval-mode cluster does. The active set shrinks before the
// leave hooks run, so a departing node's queue migrates only to
// survivors (across domains if need be).
func (f *Fleet) autoscaleStep(t float64, measuredRPS float64) error {
	roster := f.scaler.Roster()
	for i, n := range f.nodes {
		roster[i] = n.state.ScaleInfo(float64(n.queue.Len()))
		roster[i].Active = n.state.Active && !n.down
	}
	interval := f.clock.Steps()
	d := f.scaler.Decide(interval, t, measuredRPS, f.active)
	if !d.Scaled {
		return nil
	}
	from := f.active
	if d.Target > from && f.stats.FirstScaleUpInterval < 0 {
		f.stats.FirstScaleUpInterval = interval
	}
	f.active = d.Target
	f.updateActive()
	return f.scaler.Apply(from, d.Target, interval, f.fed, f.join, func(id int) { f.leave(id, t) })
}

// join is the DES's per-node half of an activation; Scaler.Apply calls
// it after the node's warm-start. The node starts its warm-up with a
// clean interval record.
func (f *Fleet) join(id int) {
	n := f.nodes[id]
	n.state.Active = true
	n.warmLeft = f.warmupIvs
	n.discardResidue()
}

// leave is the DES's per-node half of a deactivation at boundary time
// t; Scaler.Apply calls it after the node's flush.
func (f *Fleet) leave(id int, t float64) {
	n := f.nodes[id]
	// A dormant node's TD chain is cut: its next decision after
	// reactivation must not bridge the gap with a reward computed from
	// its first interval back.
	if ep, ok := n.pol.(policy.Episodic); ok {
		ep.EndEpisode()
	}
	n.state.Active = false
	n.warmLeft = 0
	// A powered-off node does not keep a request queue alive: its
	// queued requests move to the least-committed surviving nodes (in
	// FIFO order) rather than vanishing or surfacing as phantom latency
	// when the node rejoins.
	f.drainQueue(n, t, false)
	n.state.Forget()
}

// discardResidue drops the interval counts a node gathered while it
// was away: requests that were in service when it powered down or
// crashed completed into these accumulators with nobody to report
// them, and must not pollute its first interval back.
func (n *desNode) discardResidue() {
	n.arrived, n.completed = 0, 0
	n.sojourns = n.sojourns[:0]
	for i := range n.busy {
		n.busy[i] = 0
	}
}

// rollResilience is the resilience boundary step: every node's circuit
// breaker rolls its outcome window (state transitions happen only
// here, in the serial section — which is why Allow/Record inside the
// event loop never need to agree across domains mid-interval) and
// per-node hedge budgets reset for the interval that begins at this
// boundary. Inactive nodes roll too: an open breaker's countdown must
// keep ticking while its node sits out an autoscale trough.
func (f *Fleet) rollResilience() {
	if f.resil == nil {
		return
	}
	if f.resil.Breaker != nil {
		for _, n := range f.nodes {
			if n.breaker.Roll() {
				f.breakerOpens++
			}
		}
	}
	if f.resil.HedgeBudget > 0 {
		for _, n := range f.nodes {
			n.hedgeLeft = f.resil.HedgeBudget
		}
	}
}

// tick is the coordinator's serial section at the boundary that closes
// the interval ending at tEnd. Every domain is quiescent, so this is
// where everything that couples nodes or domains happens, one step
// after another in a fixed order — the order ARCHITECTURE.md lists and
// TestArchitectureBoundaryOrder holds to the calls below. Because each
// domain's interval is a pure function of its own state and this
// section is serial, a run is a pure function of (Seed, Domains) at any
// worker count.
func (f *Fleet) tick() error {
	tEnd := f.tEnd
	winsNow := f.reconcile(tEnd)
	warming := 0
	for _, n := range f.nodes[:f.active] {
		if n.warmLeft > 0 {
			warming++
		}
	}
	f.summarize()
	// The learning step runs between the parallel summaries and the
	// fleet merge: every node's measured sample for the closing interval
	// is final, no events are in flight, and the decision order
	// (ascending node id) is fixed.
	if err := f.learnStep(tEnd); err != nil {
		return err
	}
	f.rollResilience()

	fs := f.merger.MergeInterval(f.samples[:f.active])
	fs.T = tEnd
	var energy float64
	for _, n := range f.nodes {
		energy += n.lastEnergyJ
	}
	fs.EnergyJ = energy
	hedges, wins, steals, prim := 0, winsNow, 0, 0
	retries, timeouts, rateLim, hCancels := 0, 0, 0, 0
	lost := f.coordLost
	for _, l := range f.domains {
		hedges += l.hedges
		wins += l.hedgeWins
		steals += l.steals
		prim += l.primaries
		retries += l.retries
		timeouts += l.timeouts
		rateLim += l.rateLimited
		hCancels += l.hedgeCancels
		lost += l.lost
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
	f.annotateFaults(&fs, lost-f.prevLost)
	f.prevLost = lost
	f.fleet.Add(fs)
	f.stats.Hedges += hedges
	f.stats.HedgeWins += wins
	f.stats.Steals += steals
	f.stats.WarmupIntervals += warming
	f.stats.NodeIntervals += f.active
	f.stats.Retries += retries
	f.stats.Timeouts += timeouts
	f.stats.BreakerOpens += f.breakerOpens
	f.stats.RateLimited += rateLim
	f.stats.HedgeCancels += hCancels
	f.breakerOpens = 0

	f.reestimateHedgeDelay()
	measuredRPS := float64(prim) / sim.IntervalSecs
	f.stats.Requests += prim
	for _, l := range f.domains {
		l.intervalSojourns = l.intervalSojourns[:0]
		l.hedges, l.hedgeWins, l.steals, l.primaries = 0, 0, 0, 0
		l.retries, l.timeouts, l.rateLimited, l.hedgeCancels = 0, 0, 0, 0
	}
	f.coordSojourns = f.coordSojourns[:0]
	f.countDownWarmup()

	f.clock.Tick()
	t := f.clock.Now()
	// Services started from here on (migrations, hedge placements, idle
	// kicks) belong to the interval that begins now.
	for _, l := range f.domains {
		l.tickEnd = t + sim.IntervalSecs
	}
	if err := f.faultStep(t); err != nil {
		return err
	}
	f.detectStep(t)
	// Federation runs with every domain quiescent, mirroring the
	// interval-mode cluster: reading and rewriting per-node tables here
	// cannot race with policy decisions. A partition heal forces an
	// extra round so accumulated deltas flush immediately.
	if f.fed != nil && (f.fed.Due(f.clock.Steps()) || f.healPending) {
		if err := f.fed.Sync(f.clock.Steps(), f.isActiveFn); err != nil {
			return err
		}
		f.stats.SyncRounds++
	}
	f.healPending = false
	if f.scaler != nil {
		if err := f.autoscaleStep(t, measuredRPS); err != nil {
			return err
		}
	}
	f.placeHedges(t)
	f.boundaryKick(t)
	return f.refreshInterval(t)
}

// reestimateHedgeDelay sets the hedge delay for the next interval: the
// configured quantile over the whole fleet's sojourns of the interval
// that just ended (carried forward through empty intervals), so every
// domain hedges off one fleet-wide estimate.
func (f *Fleet) reestimateHedgeDelay() {
	if !f.hedging {
		return
	}
	f.selScratch = f.selScratch[:0]
	for _, l := range f.domains {
		f.selScratch = append(f.selScratch, l.intervalSojourns...)
	}
	f.selScratch = append(f.selScratch, f.coordSojourns...)
	if len(f.selScratch) == 0 {
		return
	}
	if q, err := stats.SelectPercentile(f.selScratch, f.hedgeQ); err == nil {
		for _, l := range f.domains {
			l.hedgeWait = q
		}
	}
}

// countDownWarmup charges the interval just closed to every warming
// node, before the scaling decision: a node activated at this boundary
// starts its full warm-up next interval.
func (f *Fleet) countDownWarmup() {
	for _, n := range f.nodes[:f.active] {
		if n.warmLeft > 0 {
			n.warmLeft--
		}
	}
}

// Run executes the fleet DES for the given horizon (seconds); a zero
// horizon uses the pattern's natural duration. A run continues from
// where the previous Run stopped: every domain steps to the next
// boundary (in parallel when there are several), then the coordinator
// runs the boundary tick.
func (f *Fleet) Run(horizon float64) (Result, error) {
	if f.failed != nil {
		return Result{}, f.failed
	}
	if horizon <= 0 {
		horizon = f.opts.Pattern.Duration()
	}
	if horizon <= 0 {
		return Result{}, errors.New("clusterdes: no horizon (unbounded pattern and no explicit duration)")
	}
	fail := func(err error) (Result, error) {
		f.failed = err
		return Result{}, err
	}
	if err := f.initFaults(horizon); err != nil {
		return fail(err)
	}
	// A horizon past MaxInt32 intervals cannot finish; it only skips
	// the reserve.
	if ivs := math.Ceil((horizon - f.clock.Now()) / sim.IntervalSecs); ivs > 0 && ivs <= math.MaxInt32 {
		f.reserve(int(ivs))
	}
	if f.clock.Steps() == 0 && f.fleet.Len() == 0 {
		for _, l := range f.domains {
			l.nextArrival = math.Inf(1)
		}
		if err := f.refreshInterval(0); err != nil {
			return fail(err)
		}
	}
	for f.clock.Now() < horizon {
		f.tEnd = f.clock.Now() + sim.IntervalSecs
		f.pool.Do(len(f.domains), f.stepFn)
		if err := f.tick(); err != nil {
			return fail(err)
		}
	}
	return f.result(), nil
}

// reserve sizes the run's traces for k more intervals. Every tick adds
// one fleet sample and one sample per active node, and the active set
// never shrinks below the floor (the whole roster without an
// autoscaler, the scaler's minimum with one), so the fleet trace and
// every trace below the floor grow exactly once, here. Traces above the
// floor grow by append as their nodes join; reserving them would hold
// memory for intervals an elastic fleet never runs.
func (f *Fleet) reserve(k int) {
	f.fleet.Samples = slices.Grow(f.fleet.Samples, k)
	floor := len(f.nodes)
	if f.scaler != nil {
		floor = f.scaler.MinNodes()
	}
	for _, n := range f.nodes[:floor] {
		n.trace.Samples = slices.Grow(n.trace.Samples, k)
	}
}

// result assembles the run's record: the fleet trace and stats, plus
// the latency record merged across the domain recorders and the
// coordinator's (counts and sums add exactly; the systematic samples
// concatenate into a fresh slice, so selection never reorders a live
// sample a continued run would keep decimating).
func (f *Fleet) result() Result {
	res := Result{
		Fleet: f.fleet,
		Nodes: make([]*telemetry.Trace, len(f.nodes)),
		Stats: f.stats,
	}
	if f.scaler != nil {
		st := f.scaler.Stats()
		res.Stats.Ups, res.Stats.Downs = st.Ups, st.Downs
		res.Stats.NodesAdded, res.Stats.NodesRemoved = st.NodesAdded, st.NodesRemoved
		res.Stats.PeakActive, res.Stats.MinActive = st.PeakActive, st.MinActive
		// Fault revivals warm-start outside the scaler.
		res.Stats.WarmStarts += st.WarmStarts
		res.Stats.Flushes = st.Flushes
	}
	for i, n := range f.nodes {
		res.Nodes[i] = n.trace
	}
	var seen int64
	var sum float64
	dropped, timedOut, lost := f.coordDropped, 0, f.coordLost
	total := f.lat.n
	for _, l := range f.domains {
		total += l.lat.n
	}
	sample := make([]float64, 0, total)
	for _, l := range f.domains {
		seen += l.lat.seen
		sum += l.lat.sum
		dropped += l.dropped
		timedOut += l.timedOut
		lost += l.lost
		sample = l.lat.appendSample(sample)
	}
	seen += f.lat.seen
	sum += f.lat.sum
	sample = f.lat.appendSample(sample)
	res.Latency.Completed = int(seen)
	res.Latency.Dropped = dropped
	res.Latency.TimedOut = timedOut
	res.Latency.Lost = lost
	res.Stats.Lost = lost
	res.Latency.fill(sample, seen, sum)
	return res
}

// latencyPercentiles are the end-to-end percentiles a Result reports.
var latencyPercentiles = [...]float64{0.50, 0.90, 0.95, 0.99}

// fill sets the mean and percentiles from a run's recorder totals and
// its kept sample, which the caller hands over: selection reorders it.
func (ls *LatencySummary) fill(sample []float64, seen int64, sum float64) {
	if len(sample) == 0 {
		return
	}
	ls.Mean = sum / float64(seen)
	var q [len(latencyPercentiles)]float64
	if stats.SelectPercentiles(sample, latencyPercentiles[:], q[:]) == nil {
		ls.P50, ls.P90, ls.P95, ls.P99 = q[0], q[1], q[2], q[3]
	}
}

// Uniform builds n identical node definitions over one spec and
// workload at the default configuration.
func Uniform(n int, spec *platform.Spec, wl *workload.Model) ([]NodeConfig, error) {
	if n <= 0 {
		return nil, errors.New("clusterdes: non-positive node count")
	}
	nodes := make([]NodeConfig, n)
	for i := range nodes {
		nodes[i] = NodeConfig{Spec: spec, Workload: wl}
	}
	return nodes, nil
}
