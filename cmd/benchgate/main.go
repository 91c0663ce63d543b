// Command benchgate is the CI benchmark-regression gate: it parses a
// `go test -bench` run (the -json event stream by default), writes the
// summarized per-benchmark results to a report file (the
// BENCH_<sha>.json artifact), and fails when any gated benchmark
// regressed more than the allowed fraction against the committed
// baseline, or any budgeted benchmark exceeded its allocs/op or B/op
// budget.
//
//	go test -json -bench . -benchtime 3x -count 3 -benchmem -run '^$' . |
//	  benchgate -baseline ci/bench_baseline.json -out BENCH_$SHA.json
//
// Refreshing the committed baseline after an intentional change (the
// hand-set budgets are kept):
//
//	go test -json -bench . -benchtime 3x -count 3 -benchmem -run '^$' . |
//	  benchgate -baseline ci/bench_baseline.json -update-baseline -note "PR 2 baseline"
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hipster/internal/benchparse"
)

func main() {
	var (
		in       = flag.String("in", "", "bench output to parse (default: stdin)")
		format   = flag.String("format", "json", "input format: json (go test -json stream) or text (raw bench output)")
		baseline = flag.String("baseline", "", "committed baseline file to gate against")
		out      = flag.String("out", "", "write the summarized results (report artifact) to this path")
		gate     = flag.String("gate", "BenchmarkCluster16Nodes", "comma-separated benchmark name prefixes the regression gate applies to")
		maxReg   = flag.Float64("max-regress", 0.20, "maximum allowed ns/op regression as a fraction of the baseline")
		update   = flag.Bool("update-baseline", false, "rewrite the baseline from this run instead of gating")
		note     = flag.String("note", "", "note stored in the baseline when updating")
	)
	flag.Parse()
	if err := run(*in, *format, *baseline, *out, *gate, *maxReg, *update, *note); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(in, format, baseline, out, gate string, maxReg float64, update bool, note string) error {
	var src io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}

	var results []benchparse.Result
	var err error
	switch format {
	case "json":
		results, err = benchparse.ParseJSON(src)
	case "text":
		results, err = benchparse.ParseText(src)
	default:
		return fmt.Errorf("unknown format %q (want json or text)", format)
	}
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	summary := benchparse.Summarize(results)

	names := make([]string, 0, len(summary))
	for name := range summary {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("parsed %d benchmark runs (%d distinct benchmarks)\n", len(results), len(summary))
	nsOnly := make(map[string]float64, len(summary))
	observedAllocs := make(map[string]float64)
	observedBytes := make(map[string]float64)
	for _, name := range names {
		s := summary[name]
		nsOnly[name] = s.NsPerOp
		if s.HasMem {
			observedAllocs[name] = s.AllocsPerOp
			observedBytes[name] = s.BytesPerOp
			fmt.Printf("  %-60s %14.0f ns/op %12.0f B/op %8.0f allocs/op\n",
				name, s.NsPerOp, s.BytesPerOp, s.AllocsPerOp)
		} else {
			fmt.Printf("  %-60s %14.0f ns/op\n", name, s.NsPerOp)
		}
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		// The report reuses the baseline schema; its budgets carry the
		// observed allocs/op and B/op of this run, not hand-set ceilings.
		report := benchparse.Baseline{
			Note:         "benchgate run report (alloc_budgets and bytes_budgets = observed allocs/op and B/op)",
			Benchmarks:   nsOnly,
			AllocBudgets: observedAllocs,
			BytesBudgets: observedBytes,
		}
		if err := report.WriteBaseline(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}

	if baseline == "" {
		if update {
			return fmt.Errorf("-update-baseline needs -baseline to know where to write")
		}
		return nil
	}
	if update {
		// Refresh the ns/op reference but keep the hand-set allocation
		// and byte budgets from the previous baseline, if one exists.
		b := benchparse.Baseline{Note: note, Benchmarks: nsOnly}
		if prev, err := os.Open(baseline); err == nil {
			old, rerr := benchparse.ReadBaseline(prev)
			prev.Close()
			if rerr != nil {
				return fmt.Errorf("existing baseline unreadable (fix or remove it): %w", rerr)
			}
			b.AllocBudgets, b.BytesBudgets = old.AllocBudgets, old.BytesBudgets
		}
		f, err := os.Create(baseline)
		if err != nil {
			return err
		}
		if err := b.WriteBaseline(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("baseline %s updated\n", baseline)
		return nil
	}

	f, err := os.Open(baseline)
	if err != nil {
		return err
	}
	base, err := benchparse.ReadBaseline(f)
	f.Close()
	if err != nil {
		return err
	}
	regressions, err := benchparse.Gate(summary, base, gate, maxReg)
	// Print whatever regressions were detected even when the gate
	// itself errors (e.g. a vacuous budget gate must not hide a real
	// ns/op regression found in the same run).
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "REGRESSION:", r)
	}
	if err != nil {
		return err
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s) vs %s (ns/op limit +%.0f%%, budgets exact)", len(regressions), baseline, 100*maxReg)
	}
	fmt.Printf("gate %q passed (limit +%.0f%% vs %s)\n", gate, 100*maxReg, baseline)
	return nil
}
