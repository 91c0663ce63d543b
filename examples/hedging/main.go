// Hedging: the same Web-Search fleet, load and seed served three times
// under the request-level cluster DES — once with no straggler
// mitigation, once with hedged requests (re-issue a request to a second
// node after the p95 of recently observed latencies, first response
// wins), once with cross-node work stealing (an idle node pulls the
// oldest request from the deepest queue). The interval-granularity
// cluster can only report stragglers; at request granularity the
// mitigations act on them, and both cut the fleet's end-to-end P99
// substantially on the identical request stream.
//
// The second half races the two autoscale signals on a bursty day with
// node warm-up: the queue-depth policy sees the queue the interval it
// builds and wakes a node several intervals before the tail-violation
// signal — which matters precisely because a woken node warms up for
// k intervals before it helps.
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
	fmt.Fprintln(w, "straggler mitigation under the cluster DES: 8-node Web-Search fleet, 60% load, seed 42")
	fmt.Fprintln(w)

	rows, err := experiments.HedgingTail(experiments.ClusterDESOpts{})
	if err != nil {
		return err
	}
	var baseP99 float64
	fmt.Fprintf(w, "%-14s %10s %10s %9s %11s %9s\n", "mitigation", "p50 ms", "p99 ms", "QoS", "stragglers", "activity")
	for _, r := range rows {
		activity := "-"
		switch {
		case r.Hedges > 0:
			activity = fmt.Sprintf("%d hedges (%d won)", r.Hedges, r.HedgeWins)
		case r.Steals > 0:
			activity = fmt.Sprintf("%d steals", r.Steals)
		}
		fmt.Fprintf(w, "%-14s %10.2f %10.2f %8.2f%% %11d %9s\n",
			r.Mitigation, r.P50*1000, r.P99*1000, r.QoSAttainment*100, r.Stragglers, activity)
		if r.Mitigation == "none" {
			baseP99 = r.P99
		}
	}
	for _, r := range rows {
		if r.Mitigation != "none" && baseP99 > 0 {
			fmt.Fprintf(w, "%s cut fleet P99 by %.1f%% on the same request stream\n",
				r.Mitigation, 100*(1-r.P99/baseP99))
		}
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "autoscale signal race: bursty day, min 2 of 8 nodes, 3-interval warm-up, same seed")
	res, err := experiments.WarmupSignal()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tail-violation signal : first scale-up at interval %3d, QoS %5.2f%%, p99 %6.0f ms, %d node-intervals\n",
		res.TailFirstScaleUp, res.TailQoS*100, res.TailP99*1000, res.TailNodeIntervals)
	fmt.Fprintf(w, "queue-depth signal    : first scale-up at interval %3d, QoS %5.2f%%, p99 %6.0f ms, %d node-intervals\n",
		res.QueueFirstScaleUp, res.QueueQoS*100, res.QueueP99*1000, res.QueueNodeIntervals)
	// FirstScaleUp is -1 when a signal never fired; queue-depth leads
	// outright in that case.
	switch {
	case res.QueueFirstScaleUp >= 0 && res.TailFirstScaleUp < 0:
		fmt.Fprintln(w, "\nthe queue-depth signal woke a node while the tail signal never fired at all")
	case res.QueueFirstScaleUp >= 0 && res.QueueFirstScaleUp < res.TailFirstScaleUp:
		fmt.Fprintf(w, "\nthe queue-depth signal woke the first extra node %d intervals before the tail crossed the target\n",
			res.TailFirstScaleUp-res.QueueFirstScaleUp)
	default:
		fmt.Fprintln(w, "\nwarning: the queue-depth signal did not lead on this configuration")
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
