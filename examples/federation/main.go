// Federation example: the same 4-node Hipster fleet run twice on one
// seed — first as four independent learners, then with federated table
// sharing — under a front-end whose routing weights rotate over the
// day, so each node starts by learning a different slice of the load
// range (`experiments.FederationConvergence`). The federated fleet
// merges its tables every few intervals (visit-weighted), so every
// node exploits the whole fleet's experience and reaches the
// QoS-attainment target in fewer intervals than the independent
// learners, which each fall back to the heuristic whenever they enter
// a load bucket they never visited.
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
	fmt.Fprintln(w, "federated RL table sharing: 4 HipsterIn nodes, 1440 s day, learn 120 s, target 95% attainment over 40 intervals")
	fmt.Fprintln(w)

	res, err := experiments.FederationConvergence(platform.JunoR1())
	if err != nil {
		return err
	}
	report := func(name string, r experiments.FederationConvergenceRun) {
		at := "never"
		if r.ConvergedAt >= 0 {
			at = fmt.Sprintf("interval %d", r.ConvergedAt)
		}
		fmt.Fprintf(w, "%-12s converged %-13s attainment %5.2f%%  energy %6.0f J\n",
			name, at, r.QoSAttainment*100, r.TotalEnergyJ)
	}
	report("independent", res.Independent)
	report("federated", res.Federated)

	st := res.Federated.Stats
	fmt.Fprintf(w, "\nfederation: %d sync rounds, %d reports, %d cells merged (%d table updates pooled)\n",
		st.Rounds, st.Reports, st.MergedCells, st.MergedVisits)
	ci, cf := res.Independent.ConvergedAt, res.Federated.ConvergedAt
	switch {
	case cf >= 0 && (ci < 0 || cf < ci):
		gain := "the independent fleet never got there"
		if ci >= 0 {
			gain = fmt.Sprintf("%d intervals sooner", ci-cf)
		}
		fmt.Fprintf(w, "\nfederated learners reached the QoS target %s\n", gain)
	default:
		fmt.Fprintln(w, "\nwarning: federation did not converge faster on this configuration")
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
