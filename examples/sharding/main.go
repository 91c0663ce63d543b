// Sharding: a 256-node Web-Search fleet served by the request-level
// cluster DES in 1, 2, 4 and 8 routing domains
// (`experiments.Sharding`). Each domain runs its own event loop between
// interval boundaries; work stolen across a domain boundary is
// reconciled in the coordinator's serial section, so the run stays a
// pure function of (seed, domain count) no matter how many workers step
// the domains. One domain is the default: a single fleet-wide event
// loop.
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
	fmt.Fprintln(w, "routing-domain sharding: 256-node Web-Search fleet, 60% load, work stealing, seed 42")
	fmt.Fprintln(w)

	rows, err := experiments.Sharding()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %9s %10s %10s %9s %8s %12s\n",
		"domains", "completed", "dropped", "p50 ms", "p99 ms", "QoS", "steals", "cross-domain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %10d %9d %10.2f %10.2f %8.2f%% %8d %12d\n",
			r.Domains, r.Completed, r.Dropped, r.P50*1000, r.P99*1000,
			r.QoSAttainment*100, r.Steals, r.CrossDomainSteals)
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
