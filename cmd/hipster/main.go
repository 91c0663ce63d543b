// Command hipster runs one task-management scenario — a policy managing
// a latency-critical workload under a load pattern, optionally with
// collocated batch jobs — and reports the paper's headline metrics,
// optionally dumping the full per-interval trace.
//
// Examples:
//
//	hipster -workload memcached -policy hipster-in -duration 2880
//	hipster -workload websearch -policy octopus-man -pattern ramp
//	hipster -workload websearch -policy hipster-co -batch calculix,lbm
//	hipster -workload memcached -policy static-big -csv trace.csv
//
// The cluster subcommand steps a whole fleet of Hipster-managed nodes
// in parallel under a datacenter-level load pattern:
//
//	hipster cluster -nodes 16 -workers 8 -splitter least-loaded
//	hipster cluster -nodes 32 -workload websearch -policy octopus-man
//	hipster cluster -nodes 16 -federate -sync-interval 5 -merge visit-weighted
//	hipster cluster -nodes 16 -federate -staleness 20 -merge max-confidence
//
// With -autoscale the active node set follows the load instead of the
// whole fleet running all day; combined with -federate, joining nodes
// are warm-started from the fleet table and departing nodes flush
// their learning into it:
//
//	hipster cluster -nodes 16 -autoscale -min-nodes 2 -pattern spike
//	hipster cluster -nodes 16 -autoscale -scale-policy qos-headroom -cooldown 10
//	hipster cluster -nodes 16 -autoscale -federate -sync-interval 5
//
// With -mode=des the fleet runs as one request-level discrete-event
// simulation: requests are routed through the splitter at arrival time
// and carry their latency end to end, enabling straggler mitigation
// (-mitigation hedged|work-stealing), warm-up-aware autoscaling
// (-warmup-intervals) and the queue-depth scaling signal:
//
//	hipster cluster -mode des -nodes 8 -workload websearch -pattern constant:0.6 -mitigation hedged
//	hipster cluster -mode des -nodes 8 -workload websearch -mitigation work-stealing
//	hipster cluster -mode des -nodes 8 -autoscale -scale-policy queue-depth -warmup-intervals 3
//
// Large DES fleets can be sharded into routing domains that step in
// parallel between interval boundaries; the run stays bit-identical
// for a fixed seed and domain count no matter how many workers step
// the domains:
//
//	hipster cluster -mode des -nodes 256 -domains 8 -workers 8 -pattern constant:0.6
//
// The DES request path carries an optional resilience layer: bounded
// retries with exponential backoff, per-attempt deadlines, per-node
// token-bucket admission and circuit breakers, plus hedge budgets and
// losing-copy cancellation on top of -mitigation hedged. All of it
// stays deterministic for a fixed seed and domain count:
//
//	hipster cluster -mode des -nodes 8 -timeout 0.5 -retries 2 -breaker 0.5
//	hipster cluster -mode des -nodes 8 -retries 3 -retry-backoff 0.05,1,0.1 -rate-limit 400
//	hipster cluster -mode des -nodes 8 -mitigation hedged -hedge-cancel -hedge-budget 50
//
// With -faults the DES injects a fault schedule drawn deterministically
// from the seed — node crashes that destroy queued work, slow nodes,
// network partitions, and spot revocations with a drain-notice window —
// so resilience comparisons replay the exact same disasters.
// -mitigation predictive layers a slow-node detector on top of hedging
// that flags degraded nodes from their backlog drain estimate before
// the reactive tail signal can observe a slow completion:
//
//	hipster cluster -mode des -nodes 16 -faults -crash-rate 0.02 -partition 0.01
//	hipster cluster -mode des -nodes 16 -faults -spot-fraction 0.25 -spot-notice 2
//	hipster cluster -mode des -nodes 8 -faults -slow-factor 0.3 -mitigation predictive
//
// With -learn the DES closes Hipster's RL loop on measured request
// tails: every node's -policy picks its operating point each interval
// boundary, rewarded by the latencies of the requests it actually
// served rather than the interval mode's analytic estimate. Federation
// and autoscaling compose with it, and the run stays a pure function of
// (seed, domain count):
//
//	hipster cluster -mode des -learn -nodes 8 -workload websearch -pattern spike
//	hipster cluster -mode des -learn -alpha 0.5 -gamma 0.85 -learn-secs 300
//	hipster cluster -mode des -learn -federate -sync-interval 5 -autoscale -warmup-intervals 3
//
// The tune subcommand searches those knobs offline: seeded
// hill-climbing with random restarts over the learn-enabled DES,
// every candidate scored across the training seeds on a weighted
// P99 + QoS-miss + power objective, writing the winner plus the full
// evaluation ledger as a JSON artifact that -tuned replays. The search
// is deterministic at any -workers value:
//
//	hipster tune -nodes 6 -duration 300 -restarts 3 -out tuning_result.json
//	hipster cluster -mode des -tuned tuning_result.json
//	hipster cluster -mode des -tuned tuning_result.json -seed 1042
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"hipster"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/names"
	"hipster/internal/report"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		if err := runCluster(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "hipster cluster:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "tune" {
		if err := runTune(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "hipster tune:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workloadName = flag.String("workload", "memcached", "latency-critical workload: memcached|websearch")
		policyName   = flag.String("policy", "hipster-in", "policy: hipster-in|hipster-co|octopus-man|hipster-heuristic|static-big|static-small")
		patternName  = flag.String("pattern", "diurnal", "load pattern: diurnal|ramp|constant:<frac>|spike")
		duration     = flag.Float64("duration", 1440, "simulated seconds")
		seed         = flag.Int64("seed", 42, "random seed")
		batchList    = flag.String("batch", "", "comma-separated SPEC CPU 2006 programs to collocate (implies batch mode)")
		csvPath      = flag.String("csv", "", "write the per-interval trace as CSV to this path")
		series       = flag.Bool("series", true, "print sparkline time series")
	)
	prof := profileFlags(flag.CommandLine)
	flag.Parse()

	err := prof.around(func() error {
		return run(*workloadName, *policyName, *patternName, *duration, *seed, *batchList, *csvPath, *series)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hipster:", err)
		os.Exit(1)
	}
}

// profiler wires the standard -cpuprofile/-memprofile flags into a
// command, so perf investigations of the simulator need no ad-hoc
// harness:
//
//	hipster -cpuprofile cpu.prof -duration 28800
//	hipster cluster -nodes 64 -memprofile mem.prof
//	go tool pprof cpu.prof
type profiler struct {
	cpu *string
	mem *string
}

func profileFlags(fs *flag.FlagSet) *profiler {
	return &profiler{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the run to this path"),
		mem: fs.String("memprofile", "", "write an end-of-run heap profile to this path"),
	}
}

// around runs f between profile start and teardown.
func (p *profiler) around(f func() error) error {
	if *p.cpu != "" {
		cf, err := os.Create(*p.cpu)
		if err != nil {
			return err
		}
		defer cf.Close()
		if err := pprof.StartCPUProfile(cf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := f(); err != nil {
		return err
	}
	if *p.mem != "" {
		mf, err := os.Create(*p.mem)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC() // surface live heap, not transient garbage
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return err
		}
	}
	return nil
}

func run(workloadName, policyName, patternName string, duration float64, seed int64, batchList, csvPath string, series bool) error {
	if duration < 0 {
		return fmt.Errorf("-duration %v must not be negative (0 = the pattern's own length)", duration)
	}
	spec := hipster.JunoR1()

	wl, err := hipster.WorkloadByName(workloadName)
	if err != nil {
		return err
	}

	pattern, err := hipster.PatternByName(patternName)
	if err != nil {
		return err
	}

	pol, err := buildPolicy(policyName, spec, seed, hipster.DefaultParams())
	if err != nil {
		return err
	}

	opts := hipster.SimOptions{
		Spec:     spec,
		Workload: wl,
		Pattern:  pattern,
		Policy:   pol,
		Seed:     seed,
	}
	if opts.Batch, err = batchRunner(batchList); err != nil {
		return err
	}

	sim, err := hipster.NewSimulation(opts)
	if err != nil {
		return err
	}
	trace, err := sim.Run(duration)
	if err != nil {
		return err
	}

	sum := trace.Summarize()
	fmt.Printf("workload=%s policy=%s pattern=%s duration=%.0fs seed=%d\n",
		workloadName, policyName, patternName, duration, seed)
	fmt.Printf("  QoS guarantee   : %s (%d samples)\n", report.Pct(sum.QoSGuarantee*100), sum.Samples)
	fmt.Printf("  QoS tardiness   : %s (mean over violations)\n", report.F2(sum.MeanTardiness))
	fmt.Printf("  energy          : %s J (mean %s W)\n", report.F0(sum.TotalEnergyJ), report.F2(sum.MeanPowerW))
	fmt.Printf("  migrations      : %d events (%d cores), %d DVFS-only changes\n",
		sum.MigrationEvents, sum.MigratedCores, sum.DVFSChanges)
	if opts.Batch != nil {
		fmt.Printf("  batch throughput: %s GIPS mean, %.3g instructions total\n",
			report.F2(sum.MeanBatchIPS/1e9), sum.BatchInstr)
	}

	if series && trace.Len() > 1 {
		width := 72
		lat := make([]float64, trace.Len())
		load := make([]float64, trace.Len())
		pow := make([]float64, trace.Len())
		cores := make([]float64, trace.Len())
		for i, s := range trace.Samples {
			lat[i] = s.Tardiness()
			load[i] = s.LoadFrac
			pow[i] = s.PowerW()
			cores[i] = float64(s.NBig)*2 + float64(s.NSmall)*0.5
		}
		fmt.Printf("  load      %s\n", report.Sparkline(load, width))
		fmt.Printf("  tardiness %s\n", report.Sparkline(lat, width))
		fmt.Printf("  power     %s\n", report.Sparkline(pow, width))
		fmt.Printf("  coremix   %s\n", report.Sparkline(cores, width))
	}

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("  trace written to %s\n", csvPath)
	}
	return nil
}

// batchRunner builds a fresh runner over a -batch list of
// comma-separated SPEC CPU 2006 programs; an empty list means no
// collocated batch work.
func batchRunner(list string) (*hipster.BatchRunner, error) {
	if list == "" {
		return nil, nil
	}
	var progs []hipster.BatchProgram
	for _, name := range strings.Split(list, ",") {
		p, err := hipster.BatchProgramByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return hipster.NewBatchRunner(progs)
}

// clusterFlags holds every cluster subcommand flag, parsed once; each
// field is documented by its registration in newClusterFlags. The
// validation, the interval path, runClusterDES, buildResilience and
// runTunedReplay all read it directly.
type clusterFlags struct {
	mode, workload, policy, splitter, pattern, batch string
	nodes, workers                                   int
	duration                                         float64
	seed                                             int64
	series                                           bool

	mitigation, retryBackoff              string
	domains, warmup, retries, hedgeBudget int
	hedgeQuantile, timeout, breaker, rate float64
	hedgeCancel                           bool

	learn, federate         bool
	params                  hipster.Params // -alpha, -gamma, -bucket-frac, -learn-secs
	syncInterval, staleness int
	merge                   string
	syncDropout             float64

	autoscale                    bool
	minNodes, maxNodes, cooldown int
	scalePolicy                  string

	faults                                         bool
	crashRate, slowFactor, partition, spotFraction float64
	spotNotice                                     int

	tuned string
	prof  *profiler
}

// newClusterFlags registers the cluster subcommand's flags on a fresh
// FlagSet bound to one clusterFlags.
func newClusterFlags() (*flag.FlagSet, *clusterFlags) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	c := &clusterFlags{params: hipster.DefaultParams(), prof: profileFlags(fs)}
	fs.StringVar(&c.mode, "mode", "interval", "simulation granularity: interval (analytic per-node model) | des (request-level fleet DES)")
	fs.IntVar(&c.nodes, "nodes", 16, "number of simulated nodes")
	fs.IntVar(&c.workers, "workers", 0, "goroutines stepping nodes in parallel (0 = GOMAXPROCS)")
	fs.StringVar(&c.workload, "workload", "memcached", "latency-critical workload on every node: memcached|websearch")
	fs.StringVar(&c.policy, "policy", "hipster-in", "per-node policy: hipster-in|hipster-co|octopus-man|hipster-heuristic|static-big|static-small")
	fs.StringVar(&c.splitter, "splitter", "weighted-by-capacity", "front-end load splitter: round-robin|weighted-by-capacity|least-loaded")
	fs.StringVar(&c.pattern, "pattern", "diurnal", "datacenter-level load pattern: diurnal|ramp|constant:<frac>|spike")
	fs.StringVar(&c.batch, "batch", "", "comma-separated SPEC CPU 2006 programs collocated on every node")
	fs.Float64Var(&c.duration, "duration", 1440, "simulated seconds (0 = the pattern's own length; must be positive under -tuned)")
	fs.Int64Var(&c.seed, "seed", 42, "fleet seed (node i uses seed+i)")
	fs.BoolVar(&c.series, "series", true, "print sparkline time series")
	fs.StringVar(&c.mitigation, "mitigation", "none", "DES straggler mitigation: none|hedged|work-stealing|predictive")
	fs.IntVar(&c.domains, "domains", 0, "DES routing domains stepped in parallel (0 or 1 = one fleet-wide domain)")
	fs.Float64Var(&c.hedgeQuantile, "hedge-quantile", clusterdes.DefaultHedgeQuantile, "DES hedge delay as a quantile of last interval's latencies, in (0, 1)")
	fs.IntVar(&c.retries, "retries", 0, "DES resilience: re-issue a failed attempt up to this many times per request")
	fs.StringVar(&c.retryBackoff, "retry-backoff", "", "DES retry backoff as base,cap,jitter seconds (default 0.05,1,0.1)")
	fs.Float64Var(&c.timeout, "timeout", 0, "DES per-attempt deadline in seconds; expiry frees the server slot (0 = none)")
	fs.Float64Var(&c.breaker, "breaker", 0, "DES per-node circuit breaker: open past this windowed failure rate in (0, 1] (0 = off)")
	fs.Float64Var(&c.rate, "rate-limit", 0, "DES per-node token-bucket admission in requests/second (0 = off)")
	fs.IntVar(&c.hedgeBudget, "hedge-budget", 0, "DES hedges a node may issue per monitoring interval (0 = unbounded)")
	fs.BoolVar(&c.hedgeCancel, "hedge-cancel", false, "DES: cancel the losing hedge copy once its sibling wins")
	fs.IntVar(&c.warmup, "warmup-intervals", 0, "DES intervals an autoscale-activated node serves nothing while warming")
	fs.BoolVar(&c.learn, "learn", false, "DES: close the RL loop — every node's -policy picks its operating point each interval from measured request tails")
	fs.Float64Var(&c.params.Alpha, "alpha", c.params.Alpha, "learning rate of the RL table update; the default is the paper's")
	fs.Float64Var(&c.params.Gamma, "gamma", c.params.Gamma, "discount factor of the RL table update; the default is the paper's")
	fs.Float64Var(&c.params.BucketFrac, "bucket-frac", c.params.BucketFrac, "load-bucket width of the RL state space; the default is the paper's sweep optimum")
	fs.Float64Var(&c.params.LearnSecs, "learn-secs", c.params.LearnSecs, "initial learning-phase duration in simulated seconds; the default is the paper's")
	fs.BoolVar(&c.federate, "federate", false, "share the per-node RL tables: periodically merge them into one fleet table and broadcast it back")
	fs.IntVar(&c.syncInterval, "sync-interval", cluster.DefaultSyncInterval, "monitoring intervals between federation sync rounds")
	fs.StringVar(&c.merge, "merge", "visit-weighted", "federation merge policy: visit-weighted|max-confidence|newest-wins")
	fs.IntVar(&c.staleness, "staleness", 0, "federation staleness bound K: discard a node's deltas older than K intervals (0 = unbounded)")
	fs.Float64Var(&c.syncDropout, "sync-dropout", 0, "deterministic per-node chance of missing a federation sync round (models partitions)")
	fs.BoolVar(&c.autoscale, "autoscale", false, "grow/shrink the active node set with load instead of running the whole fleet")
	fs.IntVar(&c.minNodes, "min-nodes", 1, "autoscale lower bound on active nodes")
	fs.IntVar(&c.maxNodes, "max-nodes", 0, "autoscale upper bound on active nodes (0 = the full fleet)")
	fs.StringVar(&c.scalePolicy, "scale-policy", "target-utilization", "autoscale policy: target-utilization|qos-headroom|queue-depth")
	fs.IntVar(&c.cooldown, "cooldown", 0, "autoscale intervals between a scale event and the next scale-down (0 = default 5)")
	fs.BoolVar(&c.faults, "faults", false, "DES: inject a seeded fault schedule — crashes, slow nodes (2% onset rate), partitions, spot revocation")
	fs.Float64Var(&c.crashRate, "crash-rate", 0.02, "fault schedule: per-node per-interval crash probability in [0, 1]")
	fs.Float64Var(&c.slowFactor, "slow-factor", 0.5, "fault schedule: service-rate multiplier a degraded node drops to, in (0, 1]")
	fs.Float64Var(&c.partition, "partition", 0.01, "fault schedule: per-interval network-partition probability in [0, 1]")
	fs.Float64Var(&c.spotFraction, "spot-fraction", 0, "fault schedule: fraction of the fleet that is revocable spot capacity, in [0, 1]")
	fs.IntVar(&c.spotNotice, "spot-notice", 2, "fault schedule: intervals of drain notice before a spot revocation (>= 1)")
	fs.StringVar(&c.tuned, "tuned", "", "DES: replay the winning configuration of a tuning artifact (see the tune subcommand); "+
		"unset fleet flags take the fleet the artifact was tuned on, and only -"+strings.Join(replayFlags, ", -")+" may be set")
	return fs, c
}

func runCluster(args []string) error {
	fs, c := newClusterFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	return c.prof.around(func() error {
		if err := c.validate(fs); err != nil {
			return err
		}
		if c.tuned != "" {
			return runTunedReplay(c, fs)
		}
		fed, err := c.federation()
		if err != nil {
			return err
		}
		if c.mode == "des" {
			return runClusterDES(c, fed)
		}
		return runClusterInterval(c, fed)
	})
}

// validate rejects flag combinations and values the engines would
// silently ignore or replace with a default.
func (c *clusterFlags) validate(fs *flag.FlagSet) error {
	set := make(map[string]bool)
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	// Feature-dependent flags silently doing nothing would let a typo'd
	// comparison measure the wrong fleet; surface them.
	requireFeature := func(enabled bool, feature string, flags ...string) error {
		var orphaned []string
		for _, name := range flags {
			if !enabled && set[name] {
				orphaned = append(orphaned, "-"+name)
			}
		}
		if len(orphaned) > 0 {
			return fmt.Errorf("%s require(s) %s", strings.Join(orphaned, ", "), feature)
		}
		return nil
	}
	if c.mode != "interval" && c.mode != "des" {
		return fmt.Errorf("unknown -mode %q (want interval or des)", c.mode)
	}
	if err := requireFeature(c.mode == "des", "-mode=des",
		"mitigation", "hedge-quantile", "warmup-intervals", "domains", "learn",
		"retries", "retry-backoff", "timeout", "breaker", "rate-limit",
		"hedge-budget", "hedge-cancel", "faults", "crash-rate", "slow-factor",
		"partition", "spot-fraction", "spot-notice", "tuned"); err != nil {
		return err
	}
	// The engines turn a zero autoscale floor into 1, and the tuner's
	// evaluator turns a zero fleet size or horizon or an empty workload
	// into its own default; refuse each explicitly. A negative duration
	// is refused here to name the flag (the engines refuse any horizon
	// that is not finite and positive). Unset flags always pass, so a
	// -tuned replay, which takes the artifact's fleet for them, passes
	// too.
	switch {
	case c.nodes < 1:
		return fmt.Errorf("-nodes %d must be at least 1", c.nodes)
	case c.minNodes < 1:
		return fmt.Errorf("-min-nodes %d must be at least 1", c.minNodes)
	case c.duration < 0:
		return fmt.Errorf("-duration %v must not be negative (0 = the pattern's own length)", c.duration)
	case c.duration == 0 && c.tuned != "":
		return fmt.Errorf("-duration 0 under -tuned: the replay horizon must be positive")
	case c.workload == "" && c.tuned != "":
		return fmt.Errorf("-workload \"\" under -tuned: the replay must name a workload")
	}
	// A tuning artifact dictates every knob but the fleet it replays on;
	// any flag outside replayFlags would fight it, so it is rejected
	// rather than silently ignored — the mirror image of the orphan
	// checks. fs.Visit reports the clashes in lexical order.
	if c.tuned != "" {
		var clashing []string
		fs.Visit(func(fl *flag.Flag) {
			if !slices.Contains(replayFlags, fl.Name) {
				clashing = append(clashing, "-"+fl.Name)
			}
		})
		if len(clashing) > 0 {
			return fmt.Errorf("%s conflict(s) with -tuned: the artifact dictates those knobs", strings.Join(clashing, ", "))
		}
		return nil
	}
	if err := requireFeature(c.faults, "-faults",
		"crash-rate", "slow-factor", "partition", "spot-fraction", "spot-notice"); err != nil {
		return err
	}
	// Policies and federation run in both modes — interval always, DES
	// once -learn closes the loop; only batch collocation stays
	// interval-only.
	learning := c.mode == "des" && c.learn
	if err := requireFeature(c.mode == "interval", "-mode=interval", "batch"); err != nil {
		return err
	}
	if err := requireFeature(c.mode == "interval" || learning, "-mode=interval or -mode=des -learn",
		"policy", "federate", "sync-interval", "merge", "staleness", "sync-dropout"); err != nil {
		return err
	}
	if err := requireFeature(learning, "-learn", "alpha", "gamma", "bucket-frac", "learn-secs"); err != nil {
		return err
	}
	if err := requireFeature(c.federate, "-federate", "sync-interval", "merge", "staleness", "sync-dropout"); err != nil {
		return err
	}
	if err := requireFeature(c.autoscale, "-autoscale", "min-nodes", "max-nodes", "scale-policy", "cooldown", "warmup-intervals"); err != nil {
		return err
	}
	// The predictive mitigation hedges too (it layers a detector on top
	// of Hedged), so the hedge knobs apply to both.
	hedging := c.mitigation == "hedged" || c.mitigation == "predictive"
	if err := requireFeature(hedging, "-mitigation hedged or predictive",
		"hedge-quantile", "hedge-budget", "hedge-cancel"); err != nil {
		return err
	}
	if err := requireFeature(c.retries > 0, "-retries", "retry-backoff"); err != nil {
		return err
	}
	// The engines cannot tell an explicit zero from the unset zero value
	// (they replace a zero sync interval or hedge quantile with their
	// default); the CLI can, so it rejects out-of-range values here
	// before they default silently.
	switch {
	case c.syncInterval < 1:
		return fmt.Errorf("-sync-interval %d must be at least 1", c.syncInterval)
	case c.syncDropout < 0 || c.syncDropout >= 1:
		return fmt.Errorf("-sync-dropout %v out of [0, 1)", c.syncDropout)
	case c.hedgeQuantile <= 0 || c.hedgeQuantile >= 1:
		return fmt.Errorf("-hedge-quantile %v out of (0, 1)", c.hedgeQuantile)
	}
	// Same boundary discipline for the fault knobs: the engine defaults
	// an unset SlowFactor (0.5) and SpotNotice (2) from their zero
	// values, so an explicit zero would silently turn into the default
	// instead of "no degradation"/"no notice".
	if c.faults {
		for _, r := range []struct {
			name string
			v    float64
		}{
			{"-crash-rate", c.crashRate},
			{"-partition", c.partition},
			{"-spot-fraction", c.spotFraction},
		} {
			if r.v < 0 || r.v > 1 {
				return fmt.Errorf("%s %v out of [0, 1]", r.name, r.v)
			}
		}
		if c.slowFactor <= 0 || c.slowFactor > 1 {
			return fmt.Errorf("-slow-factor %v out of (0, 1]", c.slowFactor)
		}
		if c.spotNotice < 1 {
			return fmt.Errorf("-spot-notice %d must be at least 1 interval", c.spotNotice)
		}
	}
	return nil
}

// federation builds the -federate options once for both modes — the
// interval cluster syncs at its monitoring boundaries, the
// learn-enabled DES at the same boundaries of its serial section — or
// returns nil when federation is off.
func (c *clusterFlags) federation() (*hipster.FederationOptions, error) {
	if !c.federate {
		return nil, nil
	}
	merge, err := hipster.MergePolicyByName(c.merge)
	if err != nil {
		return nil, err
	}
	fedOpts := &hipster.FederationOptions{
		SyncEvery:          c.syncInterval,
		Merge:              merge,
		StalenessIntervals: c.staleness,
	}
	if c.syncDropout > 0 {
		// A seeded hash of (node, interval) keeps the dropout pattern
		// deterministic for a given -seed, preserving the cluster's
		// reproducibility guarantees.
		p, seedBits := c.syncDropout, uint64(c.seed)
		fedOpts.Participation = func(nodeID, interval int) bool {
			h := seedBits ^ uint64(nodeID)<<32 ^ uint64(interval)
			h ^= h >> 30
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
			h *= 0x94d049bb133111eb
			h ^= h >> 31
			return float64(h%1000000)/1000000 >= p
		}
	}
	return fedOpts, nil
}

// runClusterInterval runs the interval-mode fleet: every node's engine
// steps analytically through each monitoring interval.
func runClusterInterval(c *clusterFlags, fed *hipster.FederationOptions) error {
	spec := hipster.JunoR1()
	wl, err := hipster.WorkloadByName(c.workload)
	if err != nil {
		return err
	}
	pattern, err := hipster.PatternByName(c.pattern)
	if err != nil {
		return err
	}
	splitter, err := hipster.SplitterByName(c.splitter)
	if err != nil {
		return err
	}
	defs, err := hipster.UniformClusterNodes(c.nodes, spec, wl, func(nodeID int) (hipster.Policy, error) {
		return buildPolicy(c.policy, spec, c.seed+int64(nodeID), c.params)
	})
	if err != nil {
		return err
	}
	for i := range defs {
		if defs[i].Batch, err = batchRunner(c.batch); err != nil {
			return err
		}
	}

	opts := hipster.ClusterOptions{
		Nodes:      defs,
		Pattern:    pattern,
		Splitter:   splitter,
		Workers:    c.workers,
		Seed:       c.seed,
		Federation: fed,
	}
	if opts.Autoscale, err = buildAutoscale(c); err != nil {
		return err
	}
	cl, err := hipster.NewCluster(opts)
	if err != nil {
		return err
	}
	res, err := cl.Run(c.duration)
	if err != nil {
		return err
	}

	sum := res.Summarize()
	fmt.Printf("cluster nodes=%d workers=%d workload=%s policy=%s splitter=%s pattern=%s duration=%.0fs seed=%d\n",
		c.nodes, cl.Workers(), c.workload, c.policy, splitter.Name(), c.pattern, c.duration, c.seed)
	fmt.Printf("  fleet capacity  : %s RPS\n", report.F0(cl.CapacityRPS()))
	fmt.Printf("  QoS attainment  : %s (%d node-intervals, %d nodes peak, %d intervals)\n",
		report.Pct(sum.QoSAttainment*100), sum.NodeIntervals, sum.Nodes, sum.Intervals)
	fmt.Printf("  fleet energy    : %s J (mean %s W)\n", report.F0(sum.TotalEnergyJ), report.F2(sum.MeanPowerW))
	fmt.Printf("  stragglers      : %d node-intervals (peak %d in one interval)\n",
		sum.TotalStragglers, sum.PeakStragglers)
	fmt.Printf("  throughput      : %s RPS offered, %s RPS achieved (mean)\n",
		report.F0(sum.MeanOfferedRPS), report.F0(sum.MeanAchievedRPS))
	if st, ok := cl.FederationStats(); ok {
		fmt.Printf("  federation      : %s merge, %d rounds, %d reports, %d cells merged (%d updates), %d stale deltas dropped\n",
			c.merge, st.Rounds, st.Reports, st.MergedCells, st.MergedVisits, st.StaleDropped)
	}
	if st, ok := cl.AutoscaleStats(); ok {
		fmt.Printf("  autoscale       : %s policy, %d-%d active nodes, %d up / %d down events, %d of %d node-intervals consumed\n",
			c.scalePolicy, st.MinActive, st.PeakActive, st.Ups, st.Downs,
			st.NodeIntervals, c.nodes*sum.Intervals)
		if st.WarmStarts > 0 || st.Flushes > 0 {
			fmt.Printf("  warm starts     : %d nodes seeded from the fleet table, %d departure deltas flushed\n",
				st.WarmStarts, st.Flushes)
		}
	}

	fleet := res.Fleet
	if c.series && fleet.Len() > 1 {
		width := 72
		load := make([]float64, fleet.Len())
		qos := make([]float64, fleet.Len())
		strag := make([]float64, fleet.Len())
		pow := make([]float64, fleet.Len())
		active := make([]float64, fleet.Len())
		for i, s := range fleet.Samples {
			load[i] = s.OfferedRPS
			qos[i] = s.QoSAttainment()
			strag[i] = float64(s.Stragglers)
			pow[i] = s.PowerW
			active[i] = float64(s.Nodes)
		}
		fmt.Printf("  load       %s\n", report.Sparkline(load, width))
		fmt.Printf("  qos        %s\n", report.Sparkline(qos, width))
		fmt.Printf("  stragglers %s\n", report.Sparkline(strag, width))
		fmt.Printf("  power      %s\n", report.Sparkline(pow, width))
		if _, ok := cl.AutoscaleStats(); ok {
			fmt.Printf("  active     %s\n", report.Sparkline(active, width))
		}
	}

	fmt.Println("  per-node QoS guarantee:")
	for i, tr := range res.Nodes {
		fmt.Printf("    node %2d: %s\n", i, report.Pct(tr.QoSGuarantee()*100))
	}
	return nil
}

// buildAutoscale assembles either fleet's autoscale options from the
// cluster flags, or returns nil without -autoscale. validate refuses
// -warmup-intervals outside -mode=des, so an interval cluster always
// gets a zero warm-up.
func buildAutoscale(c *clusterFlags) (*hipster.AutoscaleOptions, error) {
	if !c.autoscale {
		return nil, nil
	}
	pol, err := hipster.AutoscalePolicyByName(c.scalePolicy)
	if err != nil {
		return nil, err
	}
	return &hipster.AutoscaleOptions{
		Policy:            pol,
		MinNodes:          c.minNodes,
		MaxNodes:          c.maxNodes,
		CooldownIntervals: c.cooldown,
		WarmupIntervals:   c.warmup,
	}, nil
}

// buildResilience assembles the DES resilience options from the
// cluster flags, or returns nil when every resilience knob is at its
// off default (so plain runs carry no resilience layer at all).
func buildResilience(c *clusterFlags) (*hipster.ResilienceOptions, error) {
	r := &hipster.ResilienceOptions{
		MaxRetries:   c.retries,
		Timeout:      c.timeout,
		HedgeBudget:  c.hedgeBudget,
		CancelHedges: c.hedgeCancel,
	}
	if c.retryBackoff != "" {
		b, err := parseBackoff(c.retryBackoff)
		if err != nil {
			return nil, err
		}
		r.Backoff = b
	}
	if c.breaker != 0 {
		r.Breaker = &hipster.BreakerOptions{FailureThreshold: c.breaker}
	}
	if c.rate != 0 {
		r.RateLimit = &hipster.RateLimitOptions{RPS: c.rate}
	}
	if !r.Enabled() {
		return nil, nil
	}
	return r, nil
}

// parseBackoff parses -retry-backoff's base,cap,jitter form (jitter
// optional, e.g. "0.05,1,0.1" or "0.1,2").
func parseBackoff(s string) (hipster.RetryBackoff, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 || len(parts) > 3 {
		return hipster.RetryBackoff{}, fmt.Errorf("bad -retry-backoff %q: want base,cap[,jitter]", s)
	}
	vals := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return hipster.RetryBackoff{}, fmt.Errorf("bad -retry-backoff %q: %w", s, err)
		}
		vals[i] = v
	}
	b := hipster.RetryBackoff{Base: vals[0], Cap: vals[1]}
	if len(vals) == 3 {
		b.Jitter = vals[2]
	}
	return b, nil
}

// runClusterDES runs the request-level fleet DES: requests are
// generated fleet-wide, routed through the splitter at arrival time,
// and carry their latency end to end through per-node queues — so the
// report leads with the end-to-end latency distribution the interval
// mode cannot produce.
func runClusterDES(c *clusterFlags, fed *hipster.FederationOptions) error {
	resil, err := buildResilience(c)
	if err != nil {
		return err
	}
	spec := hipster.JunoR1()
	wl, err := hipster.WorkloadByName(c.workload)
	if err != nil {
		return err
	}
	pattern, err := hipster.PatternByName(c.pattern)
	if err != nil {
		return err
	}
	splitter, err := hipster.SplitterByName(c.splitter)
	if err != nil {
		return err
	}
	mit, err := hipster.MitigationByName(c.mitigation, c.hedgeQuantile)
	if err != nil {
		return err
	}
	defs, err := hipster.UniformClusterDESNodes(c.nodes, spec, wl)
	if err != nil {
		return err
	}
	opts := hipster.ClusterDESOptions{
		Nodes:      defs,
		Pattern:    pattern,
		Splitter:   splitter,
		Mitigation: mit,
		Workers:    c.workers,
		Domains:    c.domains,
		Seed:       c.seed,
		Resilience: resil,
	}
	if c.faults {
		opts.Faults = &hipster.FaultOptions{
			CrashRate: c.crashRate,
			// The onset rate of slow-node episodes is fixed at the crash
			// default; -slow-factor tunes how deep they cut.
			SlowRate:      0.02,
			SlowFactor:    c.slowFactor,
			PartitionRate: c.partition,
			SpotFraction:  c.spotFraction,
			SpotNotice:    c.spotNotice,
		}
	}
	if opts.Autoscale, err = buildAutoscale(c); err != nil {
		return err
	}
	if c.learn {
		opts.Learn = &hipster.ClusterDESLearn{
			BuildPolicy: func(nodeID int) (hipster.Policy, error) {
				return buildPolicy(c.policy, spec, c.seed+int64(nodeID), c.params)
			},
			Federation: fed,
		}
	}
	fl, err := hipster.NewClusterDES(opts)
	if err != nil {
		return err
	}
	res, err := fl.Run(c.duration)
	if err != nil {
		return err
	}

	sum := res.Summarize()
	learnTag := ""
	if c.learn {
		learnTag = fmt.Sprintf(" learn=%s", c.policy)
	}
	fmt.Printf("cluster mode=des%s nodes=%d domains=%d workers=%d workload=%s splitter=%s mitigation=%s pattern=%s duration=%.0fs seed=%d\n",
		learnTag, c.nodes, c.domains, fl.Workers(), c.workload, splitter.Name(), mit.Name(), c.pattern, c.duration, c.seed)
	fmt.Printf("  fleet capacity  : %s RPS\n", report.F0(fl.CapacityRPS()))
	lat := res.Latency
	fmt.Printf("  requests        : %d completed, %d dropped, %d timed out\n",
		lat.Completed, lat.Dropped, lat.TimedOut)
	fmt.Printf("  latency         : p50 %s ms  p90 %s ms  p95 %s ms  p99 %s ms (end to end)\n",
		report.F2(lat.P50*1000), report.F2(lat.P90*1000), report.F2(lat.P95*1000), report.F2(lat.P99*1000))
	fmt.Printf("  QoS attainment  : %s (%d node-intervals, %d intervals)\n",
		report.Pct(sum.QoSAttainment*100), sum.NodeIntervals, sum.Intervals)
	fmt.Printf("  stragglers      : %d node-intervals (peak %d in one interval)\n",
		sum.TotalStragglers, sum.PeakStragglers)
	fmt.Printf("  fleet energy    : %s J (mean %s W)\n", report.F0(sum.TotalEnergyJ), report.F2(sum.MeanPowerW))
	st := res.Stats
	if st.Hedges > 0 {
		fmt.Printf("  hedging         : %d hedges issued, %d won the race\n", st.Hedges, st.HedgeWins)
	}
	if st.Steals > 0 {
		fmt.Printf("  work stealing   : %d requests stolen by idle nodes\n", st.Steals)
	}
	if resil != nil {
		fmt.Printf("  resilience      : %d retries, %d attempt timeouts, %d breaker opens, %d rate-limited, %d hedge cancels\n",
			st.Retries, st.Timeouts, st.BreakerOpens, st.RateLimited, st.HedgeCancels)
	}
	if c.faults {
		fmt.Printf("  faults          : %d crashes, %d slow-node episodes, %d partitions, %d spot revocations\n",
			st.Crashes, st.SlowOnsets, st.Partitions, st.Revocations)
		fmt.Printf("  fault impact    : %d requests lost with crashed state, %d queued requests migrated off draining nodes\n",
			lat.Lost, st.Migrated)
	}
	if c.mitigation == "predictive" {
		first := "never"
		if st.FirstPredictInterval >= 0 {
			first = fmt.Sprintf("at interval %d", st.FirstPredictInterval)
		}
		fmt.Printf("  predictive      : %d suspect flags, %d queue migrations, first flag %s\n",
			st.PredFlags, st.PredMigrations, first)
	}
	if c.learn {
		fmt.Printf("  learning        : %s policy, %d decisions, %d core migrations, %d dvfs changes, %d learning-phase intervals\n",
			c.policy, st.LearnDecisions, st.CoreMigrations, st.DVFSChanges, sum.LearningIntervals)
		if fst, ok := fl.FederationStats(); ok {
			fmt.Printf("  federation      : %s merge, %d rounds, %d reports, %d cells merged (%d updates), %d stale deltas dropped\n",
				c.merge, fst.Rounds, fst.Reports, fst.MergedCells, fst.MergedVisits, fst.StaleDropped)
			if st.WarmStarts > 0 || st.Flushes > 0 {
				fmt.Printf("  warm starts     : %d nodes seeded from the fleet table, %d departure deltas flushed\n",
					st.WarmStarts, st.Flushes)
			}
		}
	}
	if c.autoscale {
		firstUp := "never"
		if st.FirstScaleUpInterval >= 0 {
			firstUp = fmt.Sprintf("at interval %d", st.FirstScaleUpInterval)
		}
		fmt.Printf("  autoscale       : %s policy, %d-%d active nodes, %d up / %d down events, first scale-up %s\n",
			c.scalePolicy, st.MinActive, st.PeakActive, st.Ups, st.Downs, firstUp)
		if st.WarmupIntervals > 0 || st.Migrated > 0 {
			fmt.Printf("  warm-up         : %d node-intervals spent warming, %d queued requests migrated off retiring nodes\n",
				st.WarmupIntervals, st.Migrated)
		}
	}

	fleet := res.Fleet
	if c.series && fleet.Len() > 1 {
		width := 72
		load := make([]float64, fleet.Len())
		tail := make([]float64, fleet.Len())
		depth := make([]float64, fleet.Len())
		active := make([]float64, fleet.Len())
		for i, s := range fleet.Samples {
			load[i] = s.OfferedRPS
			tail[i] = s.WorstTail
			depth[i] = s.Backlog
			active[i] = float64(s.Nodes)
		}
		fmt.Printf("  load       %s\n", report.Sparkline(load, width))
		fmt.Printf("  worsttail  %s\n", report.Sparkline(tail, width))
		fmt.Printf("  queues     %s\n", report.Sparkline(depth, width))
		if c.autoscale {
			fmt.Printf("  active     %s\n", report.Sparkline(active, width))
		}
	}
	return nil
}

// policyNames lists the policies buildPolicy accepts; keep it next to
// the switch below so the error message cannot drift from the cases.
var policyNames = []string{"hipster-in", "hipster-co", "octopus-man", "hipster-heuristic", "static-big", "static-small"}

func buildPolicy(name string, spec *hipster.Spec, seed int64, params hipster.Params) (hipster.Policy, error) {
	switch name {
	case "hipster-in":
		return hipster.NewHipsterIn(spec, params, seed)
	case "hipster-co":
		return hipster.NewHipsterCo(spec, params, seed)
	case "octopus-man":
		return hipster.NewOctopusMan(spec)
	case "hipster-heuristic":
		return hipster.NewHeuristicMapper(spec)
	case "static-big":
		return hipster.NewStaticBig(spec), nil
	case "static-small":
		return hipster.NewStaticSmall(spec), nil
	}
	return nil, names.Unknown("hipster", "policy", name, policyNames)
}
