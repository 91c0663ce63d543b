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
	"strconv"
	"strings"

	"hipster"
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
	spec := hipster.JunoR1()

	wl, err := hipster.WorkloadByName(workloadName)
	if err != nil {
		return err
	}

	pattern, err := parsePattern(patternName)
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
	if batchList != "" {
		var progs []hipster.BatchProgram
		for _, name := range strings.Split(batchList, ",") {
			p, err := hipster.BatchProgramByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			progs = append(progs, p)
		}
		runner, err := hipster.NewBatchRunner(progs)
		if err != nil {
			return err
		}
		opts.Batch = runner
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

func runCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	var (
		mode         = fs.String("mode", "interval", "simulation granularity: interval (analytic per-node model) | des (request-level fleet DES)")
		nodes        = fs.Int("nodes", 16, "number of simulated nodes")
		workers      = fs.Int("workers", 0, "goroutines stepping nodes in parallel (0 = GOMAXPROCS)")
		workloadName = fs.String("workload", "memcached", "latency-critical workload on every node: memcached|websearch")
		policyName   = fs.String("policy", "hipster-in", "per-node policy: hipster-in|hipster-co|octopus-man|hipster-heuristic|static-big|static-small")
		splitterName = fs.String("splitter", "weighted-by-capacity", "front-end load splitter: round-robin|weighted-by-capacity|least-loaded")
		patternName  = fs.String("pattern", "diurnal", "datacenter-level load pattern: diurnal|ramp|constant:<frac>|spike")
		batchList    = fs.String("batch", "", "comma-separated SPEC CPU 2006 programs collocated on every node")
		duration     = fs.Float64("duration", 1440, "simulated seconds")
		seed         = fs.Int64("seed", 42, "fleet seed (node i uses seed+i)")
		series       = fs.Bool("series", true, "print sparkline time series")
		mitigation   = fs.String("mitigation", "none", "DES straggler mitigation: none|hedged|work-stealing|predictive")
		domains      = fs.Int("domains", 0, "DES routing domains stepped in parallel (0 or 1 = one fleet-wide domain)")
		hedgeQ       = fs.Float64("hedge-quantile", 0.95, "DES hedge delay as a quantile of last interval's latencies, in (0, 1)")
		retries      = fs.Int("retries", 0, "DES resilience: re-issue a failed attempt up to this many times per request")
		retryBackoff = fs.String("retry-backoff", "", "DES retry backoff as base,cap,jitter seconds (default 0.05,1,0.1)")
		timeout      = fs.Float64("timeout", 0, "DES per-attempt deadline in seconds; expiry frees the server slot (0 = none)")
		breakerThr   = fs.Float64("breaker", 0, "DES per-node circuit breaker: open past this windowed failure rate in (0, 1] (0 = off)")
		rateLimit    = fs.Float64("rate-limit", 0, "DES per-node token-bucket admission in requests/second (0 = off)")
		hedgeBudget  = fs.Int("hedge-budget", 0, "DES hedges a node may issue per monitoring interval (0 = unbounded)")
		hedgeCancel  = fs.Bool("hedge-cancel", false, "DES: cancel the losing hedge copy once its sibling wins")
		warmupIvs    = fs.Int("warmup-intervals", 0, "DES intervals an autoscale-activated node serves nothing while warming")
		learn        = fs.Bool("learn", false, "DES: close the RL loop — every node's -policy picks its operating point each interval from measured request tails")
		alpha        = fs.Float64("alpha", 0.6, "learning rate of the RL table update (paper: 0.6)")
		gamma        = fs.Float64("gamma", 0.9, "discount factor of the RL table update (paper: 0.9)")
		bucketFrac   = fs.Float64("bucket-frac", 0.05, "load-bucket width of the RL state space (paper sweep optimum: 0.05)")
		learnSecs    = fs.Float64("learn-secs", 500, "initial learning-phase duration in simulated seconds (paper: 500)")
		federate     = fs.Bool("federate", false, "share the per-node RL tables: periodically merge them into one fleet table and broadcast it back")
		syncInterval = fs.Int("sync-interval", 10, "monitoring intervals between federation sync rounds")
		mergeName    = fs.String("merge", "visit-weighted", "federation merge policy: visit-weighted|max-confidence|newest-wins")
		staleness    = fs.Int("staleness", 0, "federation staleness bound K: discard a node's deltas older than K intervals (0 = unbounded)")
		dropout      = fs.Float64("sync-dropout", 0, "deterministic per-node chance of missing a federation sync round (models partitions)")
		autoScale    = fs.Bool("autoscale", false, "grow/shrink the active node set with load instead of running the whole fleet")
		minNodes     = fs.Int("min-nodes", 1, "autoscale lower bound on active nodes")
		maxNodes     = fs.Int("max-nodes", 0, "autoscale upper bound on active nodes (0 = the full fleet)")
		scalePolicy  = fs.String("scale-policy", "target-utilization", "autoscale policy: target-utilization|qos-headroom|queue-depth")
		cooldown     = fs.Int("cooldown", 0, "autoscale intervals between a scale event and the next scale-down (0 = default 5)")
		faultsOn     = fs.Bool("faults", false, "DES: inject a seeded fault schedule — crashes, slow nodes (2% onset rate), partitions, spot revocation")
		crashRate    = fs.Float64("crash-rate", 0.02, "fault schedule: per-node per-interval crash probability in [0, 1]")
		slowFactor   = fs.Float64("slow-factor", 0.5, "fault schedule: service-rate multiplier a degraded node drops to, in (0, 1]")
		partition    = fs.Float64("partition", 0.01, "fault schedule: per-interval network-partition probability in [0, 1]")
		spotFraction = fs.Float64("spot-fraction", 0, "fault schedule: fraction of the fleet that is revocable spot capacity, in [0, 1]")
		spotNotice   = fs.Int("spot-notice", 2, "fault schedule: intervals of drain notice before a spot revocation (>= 1)")
		tunedPath    = fs.String("tuned", "", "DES: replay the winning configuration of a tuning artifact (see the tune subcommand)")
	)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The flag variables stay in scope: the profiler wraps the body as
	// a closure, exactly as main does for the single-node command.
	return prof.around(func() error {
		// Feature-dependent flags silently doing nothing would let a typo'd
		// comparison measure the wrong fleet; surface them.
		requireFeature := func(enabled bool, feature string, flags ...string) error {
			if enabled {
				return nil
			}
			var orphaned []string
			fs.Visit(func(fl *flag.Flag) {
				for _, name := range flags {
					if fl.Name == name {
						orphaned = append(orphaned, "-"+fl.Name)
					}
				}
			})
			if len(orphaned) > 0 {
				return fmt.Errorf("%s require(s) %s", strings.Join(orphaned, ", "), feature)
			}
			return nil
		}
		if *mode != "interval" && *mode != "des" {
			return fmt.Errorf("unknown -mode %q (want interval or des)", *mode)
		}
		if err := requireFeature(*mode == "des", "-mode=des",
			"mitigation", "hedge-quantile", "warmup-intervals", "domains", "learn",
			"retries", "retry-backoff", "timeout", "breaker", "rate-limit",
			"hedge-budget", "hedge-cancel", "faults", "crash-rate", "slow-factor",
			"partition", "spot-fraction", "spot-notice", "tuned"); err != nil {
			return err
		}
		// A tuning artifact dictates the learning, federation, autoscale
		// and mitigation knobs; flags that would fight it are rejected
		// rather than silently ignored — the mirror image of the orphan
		// checks above.
		if *tunedPath != "" {
			set := make(map[string]bool)
			fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
			var clashing []string
			for _, name := range []string{
				"policy", "splitter", "mitigation", "hedge-quantile", "domains",
				"learn", "alpha", "gamma", "bucket-frac", "learn-secs",
				"federate", "sync-interval", "merge", "staleness", "sync-dropout",
				"autoscale", "max-nodes", "scale-policy", "cooldown", "warmup-intervals",
				"retries", "retry-backoff", "timeout", "breaker", "rate-limit",
				"hedge-budget", "hedge-cancel", "faults", "crash-rate", "slow-factor",
				"partition", "spot-fraction", "spot-notice",
			} {
				if set[name] {
					clashing = append(clashing, "-"+name)
				}
			}
			if len(clashing) > 0 {
				return fmt.Errorf("%s conflict(s) with -tuned: the artifact dictates those knobs", strings.Join(clashing, ", "))
			}
			// Unset fleet flags fall back to the tuner's evaluation
			// conditions, so a bare replay reruns the fleet the artifact
			// was tuned on; explicit flags override to probe how the
			// winner generalises.
			a := tunedArgs{
				path: *tunedPath, workers: *workers, seed: *seed, series: *series,
				nodes: 6, workload: "websearch", duration: 300, minNodes: 2,
			}
			if set["nodes"] {
				a.nodes = *nodes
			}
			if set["workload"] {
				a.workload = *workloadName
			}
			if set["pattern"] {
				a.pattern = *patternName
			}
			if set["duration"] {
				a.duration = *duration
			}
			if set["min-nodes"] {
				a.minNodes = *minNodes
			}
			return runTunedReplay(a)
		}
		if err := requireFeature(*faultsOn, "-faults",
			"crash-rate", "slow-factor", "partition", "spot-fraction", "spot-notice"); err != nil {
			return err
		}
		// Policies and federation run in both modes — interval always,
		// DES once -learn closes the loop; only batch collocation stays
		// interval-only.
		learning := *mode == "des" && *learn
		if err := requireFeature(*mode == "interval", "-mode=interval", "batch"); err != nil {
			return err
		}
		if err := requireFeature(*mode == "interval" || learning, "-mode=interval or -mode=des -learn",
			"policy", "federate", "sync-interval", "merge", "staleness", "sync-dropout"); err != nil {
			return err
		}
		if err := requireFeature(learning, "-learn", "alpha", "gamma", "bucket-frac", "learn-secs"); err != nil {
			return err
		}
		if err := requireFeature(*federate, "-federate", "sync-interval", "merge", "staleness", "sync-dropout"); err != nil {
			return err
		}
		if err := requireFeature(*autoScale, "-autoscale", "min-nodes", "max-nodes", "scale-policy", "cooldown", "warmup-intervals"); err != nil {
			return err
		}
		if *dropout < 0 || *dropout >= 1 {
			return fmt.Errorf("-sync-dropout %v out of [0, 1)", *dropout)
		}
		// The predictive mitigation hedges too (it layers a detector on
		// top of Hedged), so the hedge knobs apply to both.
		hedging := *mitigation == "hedged" || *mitigation == "predictive"
		if err := requireFeature(hedging, "-mitigation hedged or predictive",
			"hedge-quantile", "hedge-budget", "hedge-cancel"); err != nil {
			return err
		}
		if err := requireFeature(*retries > 0, "-retries", "retry-backoff"); err != nil {
			return err
		}
		// The engine cannot tell an explicit -hedge-quantile=0 from the
		// unset zero value (it defaults the latter to 0.95); the CLI can,
		// so reject out-of-range values here before they default silently.
		if *hedgeQ <= 0 || *hedgeQ >= 1 {
			return fmt.Errorf("-hedge-quantile %v out of (0, 1)", *hedgeQ)
		}
		// Same boundary discipline for the fault knobs: the engine
		// defaults an unset SlowFactor (0.5) and SpotNotice (2) from
		// their zero values, so an explicit zero would silently turn into
		// the default instead of "no degradation"/"no notice".
		if *faultsOn {
			for _, r := range []struct {
				name string
				v    float64
			}{
				{"-crash-rate", *crashRate},
				{"-partition", *partition},
				{"-spot-fraction", *spotFraction},
			} {
				if r.v < 0 || r.v > 1 {
					return fmt.Errorf("%s %v out of [0, 1]", r.name, r.v)
				}
			}
			if *slowFactor <= 0 || *slowFactor > 1 {
				return fmt.Errorf("-slow-factor %v out of (0, 1]", *slowFactor)
			}
			if *spotNotice < 1 {
				return fmt.Errorf("-spot-notice %d must be at least 1 interval", *spotNotice)
			}
		}
		// Federation is built once and shared by both modes: the interval
		// cluster syncs at its monitoring boundaries, the learn-enabled
		// DES at the same boundaries of its serial section.
		var fedOpts *hipster.FederationOptions
		if *federate {
			merge, err := hipster.MergePolicyByName(*mergeName)
			if err != nil {
				return err
			}
			fedOpts = &hipster.FederationOptions{
				SyncEvery:          *syncInterval,
				Merge:              merge,
				StalenessIntervals: *staleness,
			}
			if *dropout > 0 {
				// A seeded hash of (node, interval) keeps the dropout
				// pattern deterministic for a given -seed, preserving the
				// cluster's reproducibility guarantees.
				p, seedBits := *dropout, uint64(*seed)
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
		}
		if *mode == "des" {
			params := hipster.DefaultParams()
			params.Alpha, params.Gamma = *alpha, *gamma
			params.BucketFrac, params.LearnSecs = *bucketFrac, *learnSecs
			resil, err := buildResilience(*retries, *retryBackoff, *timeout,
				*breakerThr, *rateLimit, *hedgeBudget, *hedgeCancel)
			if err != nil {
				return err
			}
			var faultOpts *hipster.FaultOptions
			if *faultsOn {
				faultOpts = &hipster.FaultOptions{
					CrashRate: *crashRate,
					// The onset rate of slow-node episodes is fixed at the
					// crash default; -slow-factor tunes how deep they cut.
					SlowRate:      0.02,
					SlowFactor:    *slowFactor,
					PartitionRate: *partition,
					SpotFraction:  *spotFraction,
					SpotNotice:    *spotNotice,
				}
			}
			return runClusterDES(desArgs{
				nodes: *nodes, workers: *workers,
				workload: *workloadName, splitter: *splitterName, pattern: *patternName,
				duration: *duration, seed: *seed, series: *series,
				mitigation: *mitigation, hedgeQuantile: *hedgeQ, domains: *domains,
				resilience: resil, faults: faultOpts,
				autoscale: *autoScale, minNodes: *minNodes, maxNodes: *maxNodes,
				scalePolicy: *scalePolicy, cooldown: *cooldown, warmupIntervals: *warmupIvs,
				learn: *learn, policy: *policyName, params: params,
				federation: fedOpts, mergeName: *mergeName,
			})
		}

		spec := hipster.JunoR1()
		wl, err := hipster.WorkloadByName(*workloadName)
		if err != nil {
			return err
		}
		pattern, err := parsePattern(*patternName)
		if err != nil {
			return err
		}
		splitter, err := hipster.SplitterByName(*splitterName)
		if err != nil {
			return err
		}
		defs, err := hipster.UniformClusterNodes(*nodes, spec, wl, func(nodeID int) (hipster.Policy, error) {
			return buildPolicy(*policyName, spec, *seed+int64(nodeID), hipster.DefaultParams())
		})
		if err != nil {
			return err
		}
		if *batchList != "" {
			var progs []hipster.BatchProgram
			for _, name := range strings.Split(*batchList, ",") {
				p, err := hipster.BatchProgramByName(strings.TrimSpace(name))
				if err != nil {
					return err
				}
				progs = append(progs, p)
			}
			for i := range defs {
				runner, err := hipster.NewBatchRunner(progs)
				if err != nil {
					return err
				}
				defs[i].Batch = runner
			}
		}

		opts := hipster.ClusterOptions{
			Nodes:    defs,
			Pattern:  pattern,
			Splitter: splitter,
			Workers:  *workers,
			Seed:     *seed,
		}
		opts.Federation = fedOpts
		if *autoScale {
			pol, err := hipster.AutoscalePolicyByName(*scalePolicy)
			if err != nil {
				return err
			}
			opts.Autoscale = &hipster.AutoscaleOptions{
				Policy:            pol,
				MinNodes:          *minNodes,
				MaxNodes:          *maxNodes,
				CooldownIntervals: *cooldown,
			}
		}
		cl, err := hipster.NewCluster(opts)
		if err != nil {
			return err
		}
		res, err := cl.Run(*duration)
		if err != nil {
			return err
		}

		sum := res.Summarize()
		fmt.Printf("cluster nodes=%d workers=%d workload=%s policy=%s splitter=%s pattern=%s duration=%.0fs seed=%d\n",
			*nodes, cl.Workers(), *workloadName, *policyName, splitter.Name(), *patternName, *duration, *seed)
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
				*mergeName, st.Rounds, st.Reports, st.MergedCells, st.MergedVisits, st.StaleDropped)
		}
		if st, ok := cl.AutoscaleStats(); ok {
			fmt.Printf("  autoscale       : %s policy, %d-%d active nodes, %d up / %d down events, %d of %d node-intervals consumed\n",
				*scalePolicy, st.MinActive, st.PeakActive, st.Ups, st.Downs,
				st.NodeIntervals, *nodes*sum.Intervals)
			if st.WarmStarts > 0 || st.Flushes > 0 {
				fmt.Printf("  warm starts     : %d nodes seeded from the fleet table, %d departure deltas flushed\n",
					st.WarmStarts, st.Flushes)
			}
		}

		fleet := res.Fleet
		if *series && fleet.Len() > 1 {
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
	})
}

// desArgs carries the cluster flags that apply to -mode=des.
type desArgs struct {
	nodes, workers               int
	workload, splitter, pattern  string
	duration                     float64
	seed                         int64
	series                       bool
	mitigation                   string
	hedgeQuantile                float64
	domains                      int
	resilience                   *hipster.ResilienceOptions
	faults                       *hipster.FaultOptions
	autoscale                    bool
	minNodes, maxNodes, cooldown int
	scalePolicy                  string
	warmupIntervals              int
	learn                        bool
	policy                       string
	params                       hipster.Params
	federation                   *hipster.FederationOptions
	mergeName                    string
}

// buildResilience assembles the DES resilience options from the
// cluster flags, or returns nil when every resilience knob is at its
// off default (so plain runs carry no resilience layer at all).
func buildResilience(retries int, backoff string, timeout, breakerThr, rateLimit float64,
	hedgeBudget int, hedgeCancel bool) (*hipster.ResilienceOptions, error) {
	r := &hipster.ResilienceOptions{
		MaxRetries:   retries,
		Timeout:      timeout,
		HedgeBudget:  hedgeBudget,
		CancelHedges: hedgeCancel,
	}
	if backoff != "" {
		b, err := parseBackoff(backoff)
		if err != nil {
			return nil, err
		}
		r.Backoff = b
	}
	if breakerThr != 0 {
		r.Breaker = &hipster.BreakerOptions{FailureThreshold: breakerThr}
	}
	if rateLimit != 0 {
		r.RateLimit = &hipster.RateLimitOptions{RPS: rateLimit}
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
func runClusterDES(a desArgs) error {
	spec := hipster.JunoR1()
	wl, err := hipster.WorkloadByName(a.workload)
	if err != nil {
		return err
	}
	pattern, err := parsePattern(a.pattern)
	if err != nil {
		return err
	}
	splitter, err := hipster.SplitterByName(a.splitter)
	if err != nil {
		return err
	}
	mit, err := hipster.MitigationByName(a.mitigation)
	if err != nil {
		return err
	}
	if a.mitigation == "hedged" {
		mit = hipster.NewHedgedMitigation(a.hedgeQuantile)
	}
	if a.mitigation == "predictive" {
		mit = hipster.NewPredictiveMitigation(a.hedgeQuantile)
	}
	defs, err := hipster.UniformClusterDESNodes(a.nodes, spec, wl)
	if err != nil {
		return err
	}
	opts := hipster.ClusterDESOptions{
		Nodes:      defs,
		Pattern:    pattern,
		Splitter:   splitter,
		Mitigation: mit,
		Workers:    a.workers,
		Domains:    a.domains,
		Seed:       a.seed,
		Resilience: a.resilience,
		Faults:     a.faults,
	}
	if a.autoscale {
		pol, err := hipster.AutoscalePolicyByName(a.scalePolicy)
		if err != nil {
			return err
		}
		opts.Autoscale = &hipster.ClusterDESAutoscale{
			Policy:            pol,
			MinNodes:          a.minNodes,
			MaxNodes:          a.maxNodes,
			CooldownIntervals: a.cooldown,
			WarmupIntervals:   a.warmupIntervals,
		}
	}
	if a.learn {
		opts.Learn = &hipster.ClusterDESLearn{
			BuildPolicy: func(nodeID int) (hipster.Policy, error) {
				return buildPolicy(a.policy, spec, a.seed+int64(nodeID), a.params)
			},
			Federation: a.federation,
		}
	}
	fl, err := hipster.NewClusterDES(opts)
	if err != nil {
		return err
	}
	res, err := fl.Run(a.duration)
	if err != nil {
		return err
	}

	sum := res.Summarize()
	learnTag := ""
	if a.learn {
		learnTag = fmt.Sprintf(" learn=%s", a.policy)
	}
	fmt.Printf("cluster mode=des%s nodes=%d domains=%d workers=%d workload=%s splitter=%s mitigation=%s pattern=%s duration=%.0fs seed=%d\n",
		learnTag, a.nodes, a.domains, fl.Workers(), a.workload, splitter.Name(), mit.Name(), a.pattern, a.duration, a.seed)
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
	if a.resilience != nil {
		fmt.Printf("  resilience      : %d retries, %d attempt timeouts, %d breaker opens, %d rate-limited, %d hedge cancels\n",
			st.Retries, st.Timeouts, st.BreakerOpens, st.RateLimited, st.HedgeCancels)
	}
	if a.faults != nil {
		fmt.Printf("  faults          : %d crashes, %d slow-node episodes, %d partitions, %d spot revocations\n",
			st.Crashes, st.SlowOnsets, st.Partitions, st.Revocations)
		fmt.Printf("  fault impact    : %d requests lost with crashed state, %d queued requests migrated off draining nodes\n",
			lat.Lost, st.Migrated)
	}
	if a.mitigation == "predictive" {
		first := "never"
		if st.FirstPredictInterval >= 0 {
			first = fmt.Sprintf("at interval %d", st.FirstPredictInterval)
		}
		fmt.Printf("  predictive      : %d suspect flags, %d queue migrations, first flag %s\n",
			st.PredFlags, st.PredMigrations, first)
	}
	if a.learn {
		fmt.Printf("  learning        : %s policy, %d decisions, %d core migrations, %d dvfs changes, %d learning-phase intervals\n",
			a.policy, st.LearnDecisions, st.CoreMigrations, st.DVFSChanges, sum.LearningIntervals)
		if fst, ok := fl.FederationStats(); ok {
			fmt.Printf("  federation      : %s merge, %d rounds, %d reports, %d cells merged (%d updates), %d stale deltas dropped\n",
				a.mergeName, fst.Rounds, fst.Reports, fst.MergedCells, fst.MergedVisits, fst.StaleDropped)
			if st.WarmStarts > 0 || st.Flushes > 0 {
				fmt.Printf("  warm starts     : %d nodes seeded from the fleet table, %d departure deltas flushed\n",
					st.WarmStarts, st.Flushes)
			}
		}
	}
	if a.autoscale {
		firstUp := "never"
		if st.FirstScaleUpInterval >= 0 {
			firstUp = fmt.Sprintf("at interval %d", st.FirstScaleUpInterval)
		}
		fmt.Printf("  autoscale       : %s policy, %d-%d active nodes, %d up / %d down events, first scale-up %s\n",
			a.scalePolicy, st.MinActive, st.PeakActive, st.Ups, st.Downs, firstUp)
		if st.WarmupIntervals > 0 || st.Migrated > 0 {
			fmt.Printf("  warm-up         : %d node-intervals spent warming, %d queued requests migrated off retiring nodes\n",
				st.WarmupIntervals, st.Migrated)
		}
	}

	fleet := res.Fleet
	if a.series && fleet.Len() > 1 {
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
		if a.autoscale {
			fmt.Printf("  active     %s\n", report.Sparkline(active, width))
		}
	}
	return nil
}

func parsePattern(name string) (hipster.Pattern, error) {
	switch {
	case name == "diurnal":
		return hipster.DefaultDiurnal(), nil
	case name == "ramp":
		return hipster.Ramp{From: 0.5, To: 1.0, RampSecs: 175, HoldSecs: 10}, nil
	case name == "spike":
		return hipster.Spike{Base: 0.3, Peak: 0.9, EverySecs: 120, SpikeSecs: 20, Horizon: 1440}, nil
	case strings.HasPrefix(name, "constant:"):
		frac, err := strconv.ParseFloat(strings.TrimPrefix(name, "constant:"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad constant pattern %q: %w", name, err)
		}
		return hipster.ConstantLoad{Frac: frac}, nil
	}
	return nil, fmt.Errorf("unknown pattern %q", name)
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
