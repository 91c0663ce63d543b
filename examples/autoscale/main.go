// Autoscale example: the same bursty day served twice on one seed —
// first by a static 8-node fleet that stays on all day, then by an
// elastic fleet whose active node set follows the load (2..8 nodes
// under the target-utilization policy), as
// `experiments.AutoscaleElasticity` runs it. Federation rides along: every node that joins mid-burst is
// warm-started from the fleet's merged RL table instead of learning
// from zero, and every node that leaves flushes its learning back
// first. The elastic fleet serves the trace at the same QoS-attainment
// bar while consuming roughly a third fewer node-intervals, and about
// a sixth less energy.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"hipster/internal/experiments"
	"hipster/internal/platform"
)

// run executes the example and writes the report; the golden-file test
// replays it against testdata/output.golden, so the output format is
// part of the example's contract.
func run(w io.Writer) error {
	fmt.Fprintln(w, "elastic vs static fleet: 8-node roster, bursty day (0.3 base, 0.8 burst), seed 42")
	fmt.Fprintln(w)

	res, err := experiments.AutoscaleElasticity(platform.JunoR1(), experiments.AutoscaleElasticityOpts{})
	if err != nil {
		return err
	}
	for _, r := range []experiments.AutoscaleElasticityRun{res.Static, res.Elastic} {
		name := "static"
		if r.Elastic {
			name = "elastic"
		}
		fmt.Fprintf(w, "%-8s QoS attainment %5.2f%%  node-intervals %5d  energy %6.0f J\n",
			name, r.QoSAttainment*100, r.NodeIntervals, r.TotalEnergyJ)
		if r.Elastic {
			st := r.Stats
			fmt.Fprintf(w, "         %d-%d nodes active, %d up / %d down events, %d warm starts, %d departure flushes\n",
				st.MinActive, st.PeakActive, st.Ups, st.Downs, st.WarmStarts, st.Flushes)
		}
	}

	if res.Elastic.NodeIntervals < res.Static.NodeIntervals {
		fmt.Fprintf(w, "\nelastic fleet served the same day with %.1f%% fewer node-intervals\n",
			100*res.NodeIntervalSaving)
	} else {
		fmt.Fprintln(w, "\nwarning: elasticity saved nothing on this configuration")
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
