// Package engine drives the interval-based simulation that stands in
// for the paper's testbed: each monitoring interval it generates load,
// evaluates the latency-critical workload on the current configuration,
// runs collocated batch jobs on the remaining cores (Algorithm 2 lines
// 8-13), evaluates the power model, feeds the observation to the policy
// under test, and applies the policy's next configuration — charging
// migration penalties for core changes.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hipster/internal/batch"
	"hipster/internal/interference"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/sim"
	"hipster/internal/telemetry"
	"hipster/internal/workload"
)

// Options configure a run.
type Options struct {
	Spec     *platform.Spec
	Workload *workload.Model
	Pattern  loadgen.Pattern
	Policy   policy.Policy

	// Batch, when non-nil, collocates batch jobs on the cores the LC
	// configuration leaves free. The engine disables CPUidle in that
	// case (the paper's workaround for the Juno perf erratum).
	Batch *batch.Runner

	// Seed drives every stochastic stream of the run.
	Seed int64

	// InitialConfig is the configuration in force during the first
	// interval; the default is all big cores at maximum DVFS.
	InitialConfig *platform.Config

	// UseDES evaluates the latency-critical workload by discrete-event
	// simulation of every request instead of the analytic queueing
	// model — slower but approximation-free (see workload.IntervalDES).
	UseDES bool
}

const (
	// loadJitterSigma is lognormal jitter on the offered load (client
	// arrival noise).
	loadJitterSigma = 0.03
	// powerNoiseSigma is lognormal noise on the power reading handed to
	// the policy (the energy meter itself integrates true power).
	powerNoiseSigma = 0.01
)

// Engine executes a configured run.
type Engine struct {
	opts  Options
	spec  *platform.Spec
	wl    *workload.Model
	inter interference.Params

	clock   *sim.Clock
	loadRNG *rand.Rand
	wlRNG   *rand.Rand
	pwrRNG  *rand.Rand
	perfRNG *rand.Rand

	topo  *platform.Topology
	perf  *platform.PerfCounters
	meter platform.EnergyMeter

	cfg            platform.Config
	pendingMig     int
	pendingDVFS    bool
	backlog        float64
	cpuidleOff     bool
	trace          *telemetry.Trace
	batchSuspended bool

	// desRunner holds the discrete-event evaluation scratch for the
	// UseDES path; nil on the analytic path.
	desRunner *workload.DESRunner

	// Per-interval scratch, sized once in New and reused every Step so
	// the steady-state step loop allocates nothing: the core-ID lists
	// of each cluster and the per-core instruction / utilisation
	// vectors handed to the perf-counter and power models (neither of
	// which retains them).
	bigIDs       []platform.CoreID
	smallIDs     []platform.CoreID
	instrScratch []float64
	bigUtils     []float64
	smallUtils   []float64
}

// New validates options and builds an engine.
func New(opts Options) (*Engine, error) {
	if opts.Spec == nil {
		return nil, errors.New("engine: nil platform spec")
	}
	if opts.Workload == nil {
		return nil, errors.New("engine: nil workload")
	}
	if opts.Pattern == nil {
		return nil, errors.New("engine: nil load pattern")
	}
	if opts.Policy == nil {
		return nil, errors.New("engine: nil policy")
	}
	if err := opts.Workload.Validate(); err != nil {
		return nil, err
	}

	e := &Engine{
		opts:  opts,
		spec:  opts.Spec,
		wl:    opts.Workload,
		inter: interference.DefaultParams(),
		clock: sim.NewClock(),
	}
	e.loadRNG = sim.SubRNG(opts.Seed, "load")
	e.wlRNG = sim.SubRNG(opts.Seed, "workload")
	e.pwrRNG = sim.SubRNG(opts.Seed, "power")
	e.perfRNG = sim.SubRNG(opts.Seed, "perf")

	e.cpuidleOff = opts.Batch != nil
	e.topo = platform.NewTopology(opts.Spec)
	e.perf = platform.NewPerfCounters(e.topo, e.cpuidleOff, e.perfRNG)

	if opts.InitialConfig != nil {
		e.cfg = opts.InitialConfig.Normalize(opts.Spec)
	} else {
		e.cfg = platform.Config{NBig: opts.Spec.Big.Cores, BigFreq: opts.Spec.Big.MaxFreq()}
	}
	if err := e.cfg.Validate(opts.Spec); err != nil {
		return nil, fmt.Errorf("engine: initial config: %w", err)
	}
	if opts.UseDES {
		e.desRunner = &workload.DESRunner{}
	}
	e.bigIDs = e.topo.CoresOf(platform.Big)
	e.smallIDs = e.topo.CoresOf(platform.Small)
	e.instrScratch = make([]float64, e.topo.NumCores())
	e.bigUtils = make([]float64, opts.Spec.Big.Cores)
	e.smallUtils = make([]float64, opts.Spec.Small.Cores)
	e.trace = &telemetry.Trace{}
	return e, nil
}

// Config returns the configuration currently in force.
func (e *Engine) Config() platform.Config { return e.cfg }

// DropBacklog abandons any queued work carried between intervals. The
// cluster autoscaler calls it when it powers a node down: a sleeping
// node does not keep a request queue alive, so unserved backlog from
// its last active interval must not reappear as a latency spike (and a
// spurious QoS violation) when the node rejoins the fleet.
func (e *Engine) DropBacklog() { e.backlog = 0 }

// Trace returns the recorded samples so far.
func (e *Engine) Trace() *telemetry.Trace { return e.trace }

// Meter returns the cumulative energy meter.
func (e *Engine) Meter() platform.EnergyMeter { return e.meter }

// batchGrant computes the residual-core grant per Algorithm 2: batch
// jobs get every core the LC configuration does not use; if the LC
// workload occupies a single core type, the other cluster runs at its
// highest DVFS to accelerate the batch jobs, otherwise leftover cores
// share the LC cluster's setting.
func (e *Engine) batchGrant() batch.Grant {
	g := batch.Grant{
		NBig:      e.spec.Big.Cores - e.cfg.NBig,
		NSmall:    e.spec.Small.Cores - e.cfg.NSmall,
		SmallFreq: e.spec.Small.MaxFreq(),
	}
	if e.cfg.NBig == 0 {
		g.BigFreq = e.spec.Big.MaxFreq()
	} else {
		g.BigFreq = e.cfg.BigFreq
	}
	return g
}

// bigClusterFreq returns the big-cluster DVFS point in force given the
// LC configuration and batch presence (HipsterIn: unused clusters drop
// to the lowest DVFS; HipsterCo: boosted for batch).
func (e *Engine) bigClusterFreq(hasBatchCores bool) platform.FreqMHz {
	if e.cfg.NBig > 0 {
		return e.cfg.BigFreq
	}
	if e.opts.Batch != nil && hasBatchCores {
		return e.spec.Big.MaxFreq()
	}
	return e.spec.Big.MinFreq()
}

// Step advances the simulation by one monitoring interval and returns
// the recorded sample.
func (e *Engine) Step() (telemetry.Sample, error) {
	dt := sim.IntervalSecs
	tStart := e.clock.Now()

	// Offered load for this interval. Jitter may not push load past
	// 100% of capacity, but a pattern that itself demands overload (a
	// cluster front-end can route a node more than its capacity) passes
	// through, so routing mistakes surface as backlog.
	frac := e.opts.Pattern.LoadAt(tStart)
	if err := loadgen.CheckLoad(frac, tStart); err != nil {
		return telemetry.Sample{}, fmt.Errorf("engine: %w", err)
	}
	limit := math.Max(1, frac)
	frac = sim.Jitter(e.loadRNG, frac, loadJitterSigma)
	if frac > limit {
		frac = limit
	}
	offered := e.wl.RPSAt(frac)

	// Batch placement and interference.
	var grant batch.Grant
	inflation := 1.0
	slowBig, slowSmall := 1.0, 1.0
	if e.opts.Batch != nil {
		grant = e.batchGrant()
		if grant.Cores() == 0 {
			if !e.batchSuspended {
				e.opts.Batch.Suspend()
				e.batchSuspended = true
			}
		} else if e.batchSuspended {
			e.opts.Batch.Resume()
			e.batchSuspended = false
		}
		pl := interference.Placement{
			LC:                e.cfg,
			BatchBig:          grant.NBig,
			BatchSmall:        grant.NSmall,
			LCMemIntensity:    e.wl.MemIntensity,
			BatchMemIntensity: e.opts.Batch.MeanMemIntensity(),
		}
		inflation = interference.LCInflation(e.spec, e.inter, pl)
		slowBig, slowSmall = interference.BatchSlowdowns(e.spec, e.inter, pl)
	}

	// Latency-critical workload.
	wlIn := workload.IntervalInput{
		Config:          e.cfg,
		OfferedRPS:      offered,
		Dt:              dt,
		Backlog:         e.backlog,
		MigratedCores:   e.pendingMig,
		DVFSChanged:     e.pendingDVFS,
		DemandInflation: inflation,
		RNG:             e.wlRNG,
	}
	var out workload.IntervalOutput
	var err error
	if e.desRunner != nil {
		out, err = e.desRunner.Interval(e.wl, e.spec, wlIn,
			sim.SubSeed(e.opts.Seed, "des")+int64(e.clock.Steps()))
	} else {
		out, err = e.wl.Interval(e.spec, wlIn)
	}
	if err != nil {
		return telemetry.Sample{}, err
	}
	e.backlog = out.EndBacklog

	// Batch execution.
	var bres batch.StepResult
	if e.opts.Batch != nil {
		bres = e.opts.Batch.Step(e.spec, grant, dt, slowBig, slowSmall)
	}

	// Performance counters (per-core instructions), with the Juno
	// idle erratum when CPUidle is enabled.
	instr := e.perCoreInstr(out, bres, grant, dt)
	anyIdle := e.anyCoreIdle(out, grant)
	e.perf.Tick(instr, anyIdle)
	reading := e.perf.LastInterval()

	// Power model and energy meter.
	bigF := e.bigClusterFreq(grant.NBig > 0)
	load := platform.Load{
		BigFreq:         bigF,
		SmallFreq:       e.spec.Small.MaxFreq(),
		BigUtils:        e.clusterUtils(platform.Big, out, grant),
		SmallUtils:      e.clusterUtils(platform.Small, out, grant),
		CPUIdleDisabled: e.cpuidleOff,
		DeliveredIPS:    out.DeliveredIPS + bres.TotalIPS(),
	}
	breakdown := platform.SystemPower(e.spec, load)
	e.meter.Add(breakdown, dt)

	powerReading := sim.Jitter(e.pwrRNG, breakdown.Total(), powerNoiseSigma)

	tEnd := e.clock.Tick()

	// Record.
	s := telemetry.Sample{
		T:             tEnd,
		LoadFrac:      frac,
		OfferedRPS:    offered,
		AchievedRPS:   out.AchievedRPS,
		Backlog:       e.backlog,
		TailLatency:   out.TailLatency,
		Target:        e.wl.TargetLatency,
		NBig:          e.cfg.NBig,
		NSmall:        e.cfg.NSmall,
		BigFreqMHz:    int(e.cfg.BigFreq),
		Migrated:      e.pendingMig,
		DVFSChange:    e.pendingDVFS,
		BigW:          breakdown.BigW,
		SmallW:        breakdown.SmallW,
		RestW:         breakdown.RestW,
		EnergyJ:       e.meter.TotalJ(),
		BatchBigIPS:   bres.BigIPS,
		BatchSmallIPS: bres.SmallIPS,
		BatchBig:      grant.NBig,
		BatchSmall:    grant.NSmall,
		PerfGarbage:   reading.Garbage,
	}
	if ph, ok := e.opts.Policy.(policy.Phaser); ok {
		s.Phase = ph.Phase()
	}

	// Observation and next decision.
	obs := policy.Observation{
		Time:          tEnd,
		Interval:      dt,
		LoadFrac:      e.wl.LoadFrac(offered),
		TailLatency:   out.TailLatency,
		Target:        e.wl.TargetLatency,
		PowerW:        powerReading,
		Current:       e.cfg,
		HasBatch:      e.opts.Batch != nil && grant.Cores() > 0,
		BatchBigIPS:   bres.BigIPS,
		BatchSmallIPS: bres.SmallIPS,
		PerfGarbage:   reading.Garbage,
	}
	next := e.opts.Policy.Decide(obs).Normalize(e.spec)
	if err := next.Validate(e.spec); err != nil {
		return telemetry.Sample{}, fmt.Errorf("engine: policy %q returned invalid config: %w", e.opts.Policy.Name(), err)
	}
	e.pendingMig = platform.MigrationDistance(e.cfg, next)
	e.pendingDVFS = e.pendingMig == 0 && next != e.cfg
	e.cfg = next

	e.trace.Add(s)
	return s, nil
}

// Run executes the simulation for the given horizon (seconds); a zero
// horizon uses the pattern's natural duration.
func (e *Engine) Run(horizon float64) (*telemetry.Trace, error) {
	if horizon <= 0 {
		horizon = e.opts.Pattern.Duration()
	}
	if horizon <= 0 {
		return nil, errors.New("engine: no horizon (unbounded pattern and no explicit duration)")
	}
	for e.clock.Now() < horizon {
		if _, err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.trace, nil
}

// perCoreInstr distributes this interval's instructions across cores:
// LC instructions proportionally to each allocated core's service rate,
// batch instructions per the runner's per-core rates, idle cores zero.
// The returned slice is engine-owned scratch, valid until the next Step.
func (e *Engine) perCoreInstr(out workload.IntervalOutput, bres batch.StepResult, grant batch.Grant, dt float64) []float64 {
	instr := e.instrScratch
	for i := range instr {
		instr[i] = 0
	}

	bigRate := e.wl.CoreRate(e.spec, platform.Big, e.cfg.BigFreq)
	smallRate := e.wl.CoreRate(e.spec, platform.Small, e.spec.Small.MaxFreq())
	totRate := float64(e.cfg.NBig)*bigRate + float64(e.cfg.NSmall)*smallRate
	lcInstr := out.DeliveredIPS * dt

	bigIDs := e.bigIDs
	smallIDs := e.smallIDs
	if totRate > 0 {
		for i := 0; i < e.cfg.NBig; i++ {
			instr[bigIDs[i]] = lcInstr * bigRate / totRate
		}
		for i := 0; i < e.cfg.NSmall; i++ {
			instr[smallIDs[i]] = lcInstr * smallRate / totRate
		}
	}
	// Batch cores fill from the top of each cluster (disjoint from the
	// LC cores by construction).
	bi := 0
	for i := 0; i < grant.NBig; i++ {
		id := bigIDs[len(bigIDs)-1-i]
		if bi < len(bres.PerCoreIPS) {
			instr[id] += bres.PerCoreIPS[bi] * dt
			bi++
		}
	}
	for i := 0; i < grant.NSmall; i++ {
		id := smallIDs[len(smallIDs)-1-i]
		if bi < len(bres.PerCoreIPS) {
			instr[id] += bres.PerCoreIPS[bi] * dt
			bi++
		}
	}
	return instr
}

// anyCoreIdle reports whether some core had idle time this interval
// (triggering the Juno perf erratum when CPUidle is enabled): any
// unassigned core, or LC cores with visible slack.
func (e *Engine) anyCoreIdle(out workload.IntervalOutput, grant batch.Grant) bool {
	assigned := e.cfg.Cores() + grant.Cores()
	if assigned < e.spec.TotalCores() {
		return true
	}
	return out.CoreUtil < 0.98
}

// clusterUtils builds the per-core utilisation vector of one cluster:
// LC cores run at the workload's power utilisation, batch cores at full
// utilisation, the rest idle. The returned slice is engine-owned
// scratch, valid until the next Step.
func (e *Engine) clusterUtils(kind platform.CoreKind, out workload.IntervalOutput, grant batch.Grant) []float64 {
	utils := e.smallUtils
	lc, bt := e.cfg.NSmall, grant.NSmall
	if kind == platform.Big {
		utils = e.bigUtils
		lc, bt = e.cfg.NBig, grant.NBig
	}
	for i := range utils {
		utils[i] = 0
	}
	for i := 0; i < lc && i < len(utils); i++ {
		utils[i] = out.PowerUtil
	}
	for i := 0; i < bt; i++ {
		j := len(utils) - 1 - i
		if j >= lc {
			utils[j] = 1
		}
	}
	return utils
}
