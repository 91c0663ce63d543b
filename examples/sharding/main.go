// Sharding: a 256-node Web-Search fleet served by the request-level
// cluster DES, first at the default domain count (the "serial" row: one
// fleet-wide event loop), then sharded into 1, 2, 4 and 8 routing
// domains. Each domain runs its own event loop between interval
// boundaries; work stolen across a domain boundary is reconciled in the
// coordinator's serial section, so the run stays a pure function of
// (seed, domain count) no matter how many workers step the domains.
// Domains 0 and 1 both run one fleet-wide domain, so the first two rows
// agree bit for bit.
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

	res, err := experiments.Sharding(experiments.ShardingOpts{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %9s %10s %10s %9s %8s %12s\n",
		"domains", "completed", "dropped", "p50 ms", "p99 ms", "QoS", "steals", "cross-domain")
	for _, r := range res.Rows {
		label := "serial"
		if r.Domains > 0 {
			label = fmt.Sprintf("%d", r.Domains)
		}
		fmt.Fprintf(w, "%-8s %10d %9d %10.2f %10.2f %8.2f%% %8d %12d\n",
			label, r.Completed, r.Dropped, r.P50*1000, r.P99*1000,
			r.QoSAttainment*100, r.Steals, r.CrossDomainSteals)
	}

	fmt.Fprintln(w)
	if res.SerialIdentical {
		fmt.Fprintln(w, "the 1-domain sharded run reproduced the serial loop exactly: same completions,")
		fmt.Fprintln(w, "same drops, same latency quantiles to the last bit, same steal count")
	} else {
		fmt.Fprintln(w, "warning: the 1-domain sharded run diverged from the serial loop")
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
