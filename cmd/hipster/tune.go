package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"hipster"
	"hipster/internal/report"
)

// runTune implements the tune subcommand: an offline search over the
// learn-enabled cluster DES that writes its winner plus the full
// evaluation ledger as a reproducible JSON artifact. The search is
// deterministic — the same invocation reproduces the same artifact
// byte for byte at any -workers value — so the artifact doubles as a
// record of how the winner was found.
func runTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	w, d := hipster.DefaultTuneWeights(), hipster.DefaultTuneFleet()
	var (
		nodes        = fs.Int("nodes", d.Nodes, "fleet size every candidate is evaluated on")
		workers      = fs.Int("workers", 0, "parallel candidate evaluations (0 = GOMAXPROCS); never changes the result")
		workloadName = fs.String("workload", d.Workload, "latency-critical workload on every node: memcached|websearch")
		patternName  = fs.String("pattern", d.Pattern, "training-day load pattern: diurnal|ramp|constant:<frac>|spike (default: the tuner's bursty day)")
		duration     = fs.Float64("duration", d.Horizon, "simulated seconds per evaluation")
		seed         = fs.Int64("seed", 42, "search-stream seed; also the base of the default training seeds")
		trainSeeds   = fs.String("train-seeds", "", "comma-separated training seeds every candidate is scored across (default seed,seed+1)")
		rounds       = fs.Int("rounds", 12, "hill-climbing rounds per restart")
		neighbors    = fs.Int("neighbors", 4, "candidates proposed per round")
		patience     = fs.Int("patience", 2, "rounds without improvement before a climb converges")
		restarts     = fs.Int("restarts", 3, "random restarts after the default-point climb")
		minNodes     = fs.Int("min-nodes", d.MinNodes, "autoscale lower bound of every evaluation fleet")
		wP99         = fs.Float64("w-p99", w.P99, "objective weight on a second of p99 tail latency")
		wQoS         = fs.Float64("w-qos", w.QoSMiss, "objective weight on a whole missed QoS fraction")
		wPower       = fs.Float64("w-power", w.PowerW, "objective weight on a watt of fleet mean power")
		powerCap     = fs.Float64("power-cap", -1, "soft energy budget in watts; above it draw is priced steeply (-1 = measure the untuned config, 0 = no budget)")
		out          = fs.String("out", "tuning_result.json", "path the tuning artifact is written to")
	)
	prof := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return prof.around(func() error {
		switch {
		case *nodes < 2:
			return fmt.Errorf("-nodes %d: tuning needs at least 2 nodes", *nodes)
		case *minNodes < 1:
			return fmt.Errorf("-min-nodes %d must be at least 1", *minNodes)
		case *workloadName == "":
			// The evaluator reads an empty workload as unset.
			return fmt.Errorf("-workload must name a workload")
		case *duration <= 0:
			return fmt.Errorf("-duration %v must be positive", *duration)
		case *rounds < 1:
			return fmt.Errorf("-rounds %d must be at least 1", *rounds)
		case *neighbors < 1:
			return fmt.Errorf("-neighbors %d must be at least 1", *neighbors)
		case *patience < 1:
			return fmt.Errorf("-patience %d must be at least 1", *patience)
		case *restarts < 0:
			return fmt.Errorf("-restarts %d must not be negative", *restarts)
		case *wP99 < 0 || *wQoS < 0 || *wPower < 0:
			return fmt.Errorf("objective weights must not be negative (got -w-p99 %v -w-qos %v -w-power %v)", *wP99, *wQoS, *wPower)
		case *wP99 == 0 && *wQoS == 0 && *wPower == 0:
			// The tuner reads an all-zero objective as unset and would
			// silently search the default weights instead.
			return fmt.Errorf("-w-p99, -w-qos and -w-power are all 0: the objective must price something")
		case *out == "":
			return fmt.Errorf("-out must name a file")
		}
		seeds, err := parseTrainSeeds(*trainSeeds, *seed)
		if err != nil {
			return err
		}
		ev := hipster.TuneFleetEvaluator{
			Nodes:    *nodes,
			Workload: *workloadName,
			Pattern:  *patternName,
			Horizon:  *duration,
			MinNodes: *minNodes,
		}
		space, err := ev.Space()
		if err != nil {
			return err
		}
		res, err := hipster.Tune(hipster.TuneOptions{
			Space:     space,
			Evaluate:  ev.Evaluator(space),
			Seeds:     seeds,
			Seed:      *seed,
			Neighbors: *neighbors,
			MaxRounds: *rounds,
			Patience:  *patience,
			Restarts:  *restarts,
			Workers:   *workers,
			Weights:   hipster.TuneWeights{P99: *wP99, QoSMiss: *wQoS, PowerW: *wPower, PowerCapW: *powerCap},
		})
		if err != nil {
			return err
		}
		res.Fleet = &ev
		if err := res.WriteFile(*out); err != nil {
			return err
		}

		fmt.Printf("tune nodes=%d workers=%d workload=%s duration=%.0fs seed=%d train-seeds=%s\n",
			*nodes, *workers, *workloadName, *duration, *seed, formatSeeds(seeds))
		fmt.Printf("  search          : %d configs evaluated, %d rounds, %d restarts, converged=%v\n",
			len(res.Evaluations), res.Rounds, *restarts, res.Converged)
		if res.Weights.PowerCapW > 0 {
			fmt.Printf("  energy budget   : %s W (soft cap)\n", report.F2(res.Weights.PowerCapW))
		}
		fmt.Printf("  default score   : %s (train-seed mean, lower is better)\n", report.F4(res.DefaultEval.Score))
		fmt.Printf("  winner score    : %s (%s better)\n", report.F4(res.Winner.Score),
			report.Pct((1-res.Winner.Score/res.DefaultEval.Score)*100))
		fmt.Println("  winner config   :")
		printSettings(res.Winner.Settings)
		fmt.Printf("  artifact        : %s (replay with: hipster cluster -mode des -tuned %s)\n", *out, *out)
		return nil
	})
}

// replayFlags are the cluster flags a -tuned replay honours: the
// fleet the winner reruns on, the seed, and the run's plumbing. The
// artifact dictates every other knob, so any other flag set alongside
// -tuned is a conflict — a flag added later included, until it is
// marked honoured here.
var replayFlags = []string{"mode", "tuned", "nodes", "workload", "pattern", "duration",
	"min-nodes", "seed", "workers", "series", "cpuprofile", "memprofile"}

// runTunedReplay reruns a tuning artifact's winning configuration as a
// cluster DES on the fleet the artifact records (the tuner's default
// fleet for an artifact that records none), each fleet flag set on the
// command line overriding its recorded value. The artifact's own space
// and winner settings rebuild the exact evaluation fleet through the
// same code path the tuner used, so a bare replay under a training
// seed reproduces the ledger's numbers and a replay under a fresh seed
// grades the winner on a day it never saw. ReadTuneResult has already
// accepted the recorded fleet, so a fleet refused after the overrides
// is reported with the flags that changed it.
func runTunedReplay(c *clusterFlags, fs *flag.FlagSet) error {
	res, err := hipster.ReadTuneResult(c.tuned)
	if err != nil {
		return err
	}
	ev := hipster.DefaultTuneFleet()
	if res.Fleet != nil {
		ev = *res.Fleet
	}
	var overrides []string
	fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "nodes":
			ev.Nodes = c.nodes
		case "workload":
			ev.Workload = c.workload
		case "pattern":
			ev.Pattern = c.pattern
		case "duration":
			ev.Horizon = c.duration
		case "min-nodes":
			ev.MinNodes = c.minNodes
		default:
			return
		}
		overrides = append(overrides, "-"+fl.Name+" "+fl.Value.String())
	})
	opts, err := ev.FleetOptions(res.Space, res.WinnerPoint(), c.seed)
	if err != nil {
		if len(overrides) > 0 {
			return fmt.Errorf("-tuned %s with %s: %w", c.tuned, strings.Join(overrides, " "), err)
		}
		return err
	}
	opts.Workers = c.workers
	m, err := hipster.EvaluateClusterDES(opts, ev.Horizon)
	if err != nil {
		return err
	}

	fmt.Printf("cluster mode=des tuned=%s nodes=%d workload=%s duration=%.0fs seed=%d\n",
		c.tuned, ev.Nodes, ev.Workload, ev.Horizon, c.seed)
	fmt.Println("  tuned config    :")
	printSettings(res.Winner.Settings)
	fmt.Printf("  requests        : %d issued, %d completed\n", m.Requests, m.Completed)
	fmt.Printf("  latency         : p99 %s ms (end to end)\n", report.F2(m.P99*1000))
	fmt.Printf("  QoS attainment  : %s\n", report.Pct(m.QoSAttainment*100))
	fmt.Printf("  fleet energy    : %s J (mean %s W)\n", report.F0(m.EnergyJ), report.F2(m.MeanPowerW))
	fmt.Printf("  objective score : %s (artifact weights; winner scored %s on the training seeds)\n",
		report.F4(res.Weights.Score(m)), report.F4(res.Winner.Score))
	return nil
}

// printSettings prints a tuned configuration, one setting per line.
func printSettings(settings []hipster.TuneSetting) {
	for _, s := range settings {
		v := s.Value
		if v == "" {
			v = strconv.FormatFloat(s.Number, 'g', 6, 64)
		}
		fmt.Printf("    %-15s %s\n", s.Name, v)
	}
}

// parseTrainSeeds parses the -train-seeds list, defaulting to
// {seed, seed+1}.
func parseTrainSeeds(s string, seed int64) ([]int64, error) {
	if s == "" {
		return []int64{seed, seed + 1}, nil
	}
	parts := strings.Split(s, ",")
	seeds := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -train-seeds %q: %w", s, err)
		}
		seeds[i] = v
	}
	return seeds, nil
}

// formatSeeds renders a seed list for the report header.
func formatSeeds(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = strconv.FormatInt(s, 10)
	}
	return strings.Join(parts, ",")
}
