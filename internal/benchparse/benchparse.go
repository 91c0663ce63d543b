// Package benchparse parses `go test -bench` output — either the raw
// text or the `go test -json` event stream — into per-benchmark ns/op
// results, and implements the CI regression gate that compares a run
// against a committed baseline (cmd/benchgate).
package benchparse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement line.
type Result struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped, so results compare across machines with different core
	// counts.
	Name string `json:"name"`
	// Iters is b.N for the run.
	Iters int `json:"iters"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp carry the -benchmem columns; HasMem
	// reports whether the line included them.
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	HasMem      bool    `json:"has_mem,omitempty"`
}

// testEvent is the subset of the `go test -json` envelope we need.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// procsSuffix matches the trailing -GOMAXPROCS benchmark name suffix.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkCluster16Nodes/workers=1-8   3   49812345 ns/op   512 B/op   7 allocs/op
//
// returning ok=false for any other output line. The -benchmem columns
// (B/op, allocs/op) are optional.
func parseLine(line string) (Result, bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	// Shortest valid form: name, iters, value, "ns/op".
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: procsSuffix.ReplaceAllString(fields[0], ""), Iters: iters}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			// Not a value/unit pair (e.g. a stray word); a malformed
			// ns/op value still rejects the line below.
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op", "B/op", "allocs/op":
			if v < 0 {
				// go test never reports negative costs; reject the
				// line as corrupt rather than gate against nonsense.
				return Result{}, false
			}
			switch unit {
			case "ns/op":
				res.NsPerOp = v
				sawNs = true
			case "B/op":
				res.BytesPerOp = v
				res.HasMem = true
			case "allocs/op":
				res.AllocsPerOp = v
				res.HasMem = true
			}
		}
	}
	if !sawNs {
		return Result{}, false
	}
	return res, true
}

// ParseText parses plain `go test -bench` output.
func ParseText(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if res, ok := parseLine(sc.Text()); ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// ParseJSON parses a `go test -json` event stream, extracting the
// benchmark result lines from the output events. A benchmark's name
// and its measurements arrive as separate output events (the name is
// printed when the benchmark starts, the numbers when it finishes), so
// output is reassembled per package and split on real line boundaries
// before parsing.
func ParseJSON(r io.Reader) ([]Result, error) {
	var out []Result
	pending := make(map[string]string)
	flush := func(pkg, chunk string) {
		buf := pending[pkg] + chunk
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			if res, ok := parseLine(buf[:nl]); ok {
				out = append(out, res)
			}
			buf = buf[nl+1:]
		}
		pending[pkg] = buf
	}
	dec := json.NewDecoder(r)
	for {
		var ev testEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("benchparse: decode test event: %w", err)
		}
		if ev.Action != "output" {
			continue
		}
		flush(ev.Package, ev.Output)
	}
	// A final line without a trailing newline (truncated stream) is
	// still worth parsing.
	for _, rest := range pending {
		if res, ok := parseLine(rest); ok {
			out = append(out, res)
		}
	}
	return out, nil
}

// Summary is the per-benchmark collapse of repeated runs: minimum
// ns/op, and minimum B/op / allocs/op when any run carried -benchmem
// columns.
type Summary struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	HasMem      bool
}

// Summarize collapses repeated runs (go test -count N) into the
// minimum per benchmark name — the least-noisy estimate of the
// benchmark's true cost, as benchstat and friends use.
func Summarize(results []Result) map[string]Summary {
	out := make(map[string]Summary, len(results))
	for _, r := range results {
		s, ok := out[r.Name]
		if !ok || r.NsPerOp < s.NsPerOp {
			s.NsPerOp = r.NsPerOp
		}
		if r.HasMem {
			if !s.HasMem || r.BytesPerOp < s.BytesPerOp {
				s.BytesPerOp = r.BytesPerOp
			}
			if !s.HasMem || r.AllocsPerOp < s.AllocsPerOp {
				s.AllocsPerOp = r.AllocsPerOp
			}
			s.HasMem = true
		}
		out[r.Name] = s
	}
	return out
}

// Baseline is the committed reference a run is gated against.
type Baseline struct {
	// Note documents where the baseline came from.
	Note string `json:"note,omitempty"`
	// Benchmarks maps benchmark name (procs suffix stripped) to the
	// reference min ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// AllocBudgets maps benchmark name to the maximum allowed
	// allocs/op. Unlike the ns/op reference, a budget is a hand-set
	// ceiling: the bench job must run with -benchmem, and any budgeted
	// benchmark allocating more than its budget fails the gate.
	// benchgate -update-baseline refreshes Benchmarks but preserves
	// these budgets.
	AllocBudgets map[string]float64 `json:"alloc_budgets,omitempty"`
	// BytesBudgets maps benchmark name to the maximum allowed B/op,
	// checked and preserved exactly like AllocBudgets.
	BytesBudgets map[string]float64 `json:"bytes_budgets,omitempty"`
}

// ReadBaseline decodes a baseline file.
func ReadBaseline(r io.Reader) (Baseline, error) {
	var b Baseline
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return Baseline{}, fmt.Errorf("benchparse: decode baseline: %w", err)
	}
	return b, nil
}

// WriteBaseline encodes a baseline with stable key order.
func (b Baseline) WriteBaseline(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Gate compares the summarized current run against the baseline: the
// ns/op of every baseline benchmark whose name starts with any of the
// comma-separated prefixes (current more than maxRegress above
// baseline fails, e.g. 0.20 = +20%), plus every allocation and byte
// budget in the baseline regardless of prefix (allocs/op or B/op above
// the budget fails; budgets are exempt from maxRegress since both are
// near-deterministic). Every prefix must match at least one baseline
// benchmark — a stale prefix in the gate list means a renamed or
// deleted benchmark, which must fail rather than silently retire its
// gate. It returns human-readable regression messages and an error
// when either gate is vacuous — no gated benchmark appears in the
// current run (or, for budgets, ran without -benchmem), so a
// regression could never be detected.
func Gate(current map[string]Summary, base Baseline, prefix string, maxRegress float64) ([]string, error) {
	var prefixes []string
	for _, p := range strings.Split(prefix, ",") {
		if p = strings.TrimSpace(p); p != "" {
			prefixes = append(prefixes, p)
		}
	}
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("benchparse: empty gate prefix %q", prefix)
	}
	gated := make(map[string]bool)
	for _, p := range prefixes {
		matched := false
		for name := range base.Benchmarks {
			if strings.HasPrefix(name, p) {
				gated[name] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("benchparse: baseline has no benchmark matching %q", p)
		}
	}
	names := make([]string, 0, len(gated))
	for name := range gated {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	compared := 0
	for _, name := range names {
		cur, ok := current[name]
		if !ok {
			// Sub-benchmarks parameterised by machine shape (e.g.
			// workers=GOMAXPROCS) may not exist on this runner.
			continue
		}
		compared++
		ref := base.Benchmarks[name]
		if ref > 0 && cur.NsPerOp > ref*(1+maxRegress) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f (%+.1f%%, limit %+.0f%%)",
				name, cur.NsPerOp, ref, 100*(cur.NsPerOp/ref-1), 100*maxRegress))
		}
	}
	if compared == 0 {
		return nil, fmt.Errorf("benchparse: none of the %d gated baseline benchmarks ran; gate would be vacuous", len(names))
	}

	allocRegs, unchecked := overBudget(current, base.AllocBudgets, "allocs/op", func(s Summary) float64 { return s.AllocsPerOp })
	byteRegs, uncheckedBytes := overBudget(current, base.BytesBudgets, "B/op", func(s Summary) float64 { return s.BytesPerOp })
	regressions = append(append(regressions, allocRegs...), byteRegs...)
	unchecked = append(unchecked, uncheckedBytes...)
	slices.Sort(unchecked)
	unchecked = slices.Compact(unchecked)
	if len(unchecked) > 0 {
		// Return the ns/op regressions found so far alongside the
		// error, so a vacuous budget gate cannot hide a real one.
		return regressions, fmt.Errorf("benchparse: budgeted benchmark(s) %s did not run with -benchmem; fix the bench command or remove the stale budget", strings.Join(unchecked, ", "))
	}
	return regressions, nil
}

// overBudget checks every budget, in name order, against the run's
// -benchmem column that value reads: a value above its budget is a
// regression, and a budgeted benchmark missing from the run or run
// without -benchmem is unchecked. Unlike the ns gate, an absence is
// not a skip: budgets name machine-independent benchmarks, so it means
// a rename, a deleted benchmark, or a bench command missing -benchmem,
// each of which would otherwise retire the budget silently while CI
// stays green.
func overBudget(current map[string]Summary, budgets map[string]float64, unit string, value func(Summary) float64) (regressions, unchecked []string) {
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cur, ok := current[name]
		if !ok || !cur.HasMem {
			unchecked = append(unchecked, name)
			continue
		}
		if v, budget := value(cur), budgets[name]; v > budget {
			regressions = append(regressions, fmt.Sprintf("%s: %.0f %s over budget %.0f", name, v, unit, budget))
		}
	}
	return regressions, unchecked
}
