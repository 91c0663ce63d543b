// DES learning: close Hipster's RL loop on measured request tails. Two
// identical 6-node Web-Search fleets learn the same bursty day from the
// same seed — one inside the request-level cluster DES, where each
// interval's reward comes from the latencies of the requests the node
// actually served, and one in interval mode, where the reward can only
// come from the analytic tail estimate. Both trained table sets are
// then frozen (exploitation phase) and graded in the DES — the ground
// truth — on a held-out seed. Tables trained on measured tails meet a
// higher QoS at lower energy: burst transients, where queueing built
// during a spike drains across the following intervals, are exactly
// where the analytic estimate and the measured tail disagree.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hipster/internal/experiments"
)

// run executes the example and writes the report; the golden-file test
// replays it against testdata/output.golden, so the output format is
// part of the example's contract.
func run(w io.Writer) error {
	res, err := experiments.DESLearning(experiments.DESLearningOpts{})
	if err != nil {
		return err
	}
	o := res.Opts
	fmt.Fprintf(w, "in-DES learning vs interval-mode learning: %d-node Web-Search fleet, seed %d\n", o.Nodes, experiments.DefaultSeed)
	fmt.Fprintf(w, "train %.0fs on the bursty day (learning phase %.0fs), evaluate %.0fs in the DES on seed %d\n",
		o.TrainSecs, o.LearnSecs, o.EvalSecs, experiments.DefaultSeed+1000)
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-18s %10s %8s %10s %8s %6s\n",
		"trained in", "p99 ms", "QoS", "energy J", "migr", "dvfs")
	for _, r := range []experiments.DESLearningRow{res.DESTrained, res.IntervalTrained} {
		label := "DES (measured)"
		if r.Source == "interval" {
			label = "interval (model)"
		}
		fmt.Fprintf(w, "%-18s %10.2f %7.2f%% %10.1f %8d %6d\n",
			label, r.P99*1000, r.QoSAttainment*100, r.EnergyJ, r.CoreMigrations, r.DVFSChanges)
	}

	fmt.Fprintln(w)
	d, iv := res.DESTrained, res.IntervalTrained
	if d.QoSAttainment >= iv.QoSAttainment && d.EnergyJ <= iv.EnergyJ {
		fmt.Fprintln(w, "tables trained on measured request tails meet a higher QoS at lower energy")
		fmt.Fprintln(w, "than tables trained against the analytic tail estimate — same fleet, same")
		fmt.Fprintln(w, "day, same seed, same hyperparameters; only the reward signal differs")
	} else {
		fmt.Fprintln(w, "warning: DES-trained tables did not dominate the interval-trained tables")
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
