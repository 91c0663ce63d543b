package benchparse

import (
	"bytes"
	"strings"
	"testing"
)

const sampleText = `goos: linux
goarch: amd64
pkg: hipster
BenchmarkEngineStep-8   	       3	     21042 ns/op	     464 B/op	       7 allocs/op
BenchmarkEngineStep-8   	       3	     22000 ns/op	     512 B/op	       5 allocs/op
BenchmarkCluster16Nodes/workers=1-8         	       3	  49812345 ns/op	        97.53 fleet-qos%
BenchmarkCluster16Nodes/workers=8-8         	       3	  12345678 ns/op	        97.53 fleet-qos%
BenchmarkCluster16Nodes/workers=1-8         	       3	  51000000 ns/op	        97.53 fleet-qos%
--- BENCH: BenchmarkSomething
PASS
ok  	hipster	12.3s
`

func TestParseTextAndSummarize(t *testing.T) {
	results, err := ParseText(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5: %+v", len(results), results)
	}
	// The -8 procs suffix is stripped so runs compare across machines,
	// and the -benchmem columns ride along.
	want := Result{Name: "BenchmarkEngineStep", Iters: 3, NsPerOp: 21042, BytesPerOp: 464, AllocsPerOp: 7, HasMem: true}
	if results[0] != want {
		t.Fatalf("first result = %+v, want %+v", results[0], want)
	}
	// A custom-metric line without -benchmem columns parses with
	// HasMem unset.
	if results[2].HasMem {
		t.Fatalf("fleet-qos line claims mem columns: %+v", results[2])
	}
	sum := Summarize(results)
	// Repeated -count runs collapse to the min, per column.
	if got := sum["BenchmarkCluster16Nodes/workers=1"].NsPerOp; got != 49812345 {
		t.Fatalf("summarized workers=1 = %v, want the min 49812345", got)
	}
	es := sum["BenchmarkEngineStep"]
	if !es.HasMem || es.NsPerOp != 21042 || es.BytesPerOp != 464 || es.AllocsPerOp != 5 {
		t.Fatalf("summarized EngineStep = %+v", es)
	}
	if len(sum) != 3 {
		t.Fatalf("summarized %d benchmarks, want 3", len(sum))
	}
}

func TestParseJSON(t *testing.T) {
	// go test -json emits a benchmark's name and its measurements as
	// separate output events: the name when the benchmark starts, the
	// numbers when it finishes. The parser must stitch them together.
	stream := `{"Action":"start","Package":"hipster"}
{"Action":"output","Package":"hipster","Output":"BenchmarkEngineStep-4   \t"}
{"Action":"output","Package":"hipster","Output":"       3\t     21042 ns/op\n"}
{"Action":"output","Package":"hipster","Output":"some unrelated output\n"}
{"Action":"output","Package":"hipster","Output":"BenchmarkCluster16Nodes/workers=1-4 \t 3\t 49812345 ns/op\t 97.5 fleet-qos%\n"}
{"Action":"output","Package":"hipster","Output":"BenchmarkTrailing-4 \t 3\t 77 ns/op"}
{"Action":"pass","Package":"hipster"}
`
	results, err := ParseJSON(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	if results[0].Name != "BenchmarkEngineStep" || results[0].NsPerOp != 21042 {
		t.Fatalf("split-event result = %+v", results[0])
	}
	if results[1].Name != "BenchmarkCluster16Nodes/workers=1" {
		t.Fatalf("second result = %+v", results[1])
	}
	// A final line without a trailing newline still parses.
	if results[2].Name != "BenchmarkTrailing" || results[2].NsPerOp != 77 {
		t.Fatalf("trailing result = %+v", results[2])
	}
	if _, err := ParseJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("want error for malformed stream")
	}
}

func TestParseLineRejectsNonBenchLines(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  \thipster\t12.3s",
		"BenchmarkBroken abc 123 ns/op",
		"BenchmarkNoUnit 3 12345",
		"--- BENCH: BenchmarkX",
		"Benchmark", // name only
	} {
		if r, ok := parseLine(line); ok {
			t.Errorf("line %q parsed as %+v", line, r)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	b := Baseline{
		Note:       "test",
		Benchmarks: map[string]float64{"BenchmarkX": 100, "BenchmarkY/sub=1": 200},
	}
	var buf bytes.Buffer
	if err := b.WriteBaseline(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != b.Note || len(got.Benchmarks) != 2 || got.Benchmarks["BenchmarkX"] != 100 {
		t.Fatalf("round-trip = %+v", got)
	}
	if _, err := ReadBaseline(strings.NewReader("nope")); err == nil {
		t.Fatal("want error for garbage baseline")
	}
}

func TestGate(t *testing.T) {
	base := Baseline{Benchmarks: map[string]float64{
		"BenchmarkCluster16Nodes/workers=1":  100,
		"BenchmarkCluster16Nodes/workers=16": 50,
		"BenchmarkEngineStep":                10,
	}}

	// Within the limit: no regressions. The workers=16 sub-benchmark
	// is absent on this "runner" and is skipped, and the ungated
	// EngineStep regression is ignored.
	current := map[string]Summary{
		"BenchmarkCluster16Nodes/workers=1": {NsPerOp: 115},
		"BenchmarkEngineStep":               {NsPerOp: 99},
	}
	regs, err := Gate(current, base, "BenchmarkCluster16Nodes", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	// Past the limit: reported.
	current["BenchmarkCluster16Nodes/workers=1"] = Summary{NsPerOp: 121}
	regs, err = Gate(current, base, "BenchmarkCluster16Nodes", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "workers=1") {
		t.Fatalf("regressions = %v", regs)
	}

	// A prefix with no baseline entries is a configuration error.
	if _, err := Gate(current, base, "BenchmarkNope", 0.20); err == nil {
		t.Fatal("want error for unmatched prefix")
	}

	// A gate where no gated benchmark ran must fail rather than pass
	// silently.
	if _, err := Gate(map[string]Summary{}, base, "BenchmarkCluster16Nodes", 0.20); err == nil {
		t.Fatal("want error for vacuous gate")
	}
}

func TestGateMultiPrefix(t *testing.T) {
	base := Baseline{Benchmarks: map[string]float64{
		"BenchmarkCluster16Nodes/workers=1": 100,
		"BenchmarkTuneSmall":                200,
		"BenchmarkEngineStep":               10,
	}}
	current := map[string]Summary{
		"BenchmarkCluster16Nodes/workers=1": {NsPerOp: 100},
		"BenchmarkTuneSmall":                {NsPerOp: 300},
		"BenchmarkEngineStep":               {NsPerOp: 99},
	}

	// A comma-separated gate list covers both families: the Tune
	// regression is caught, the ungated EngineStep one still ignored.
	regs, err := Gate(current, base, "BenchmarkCluster,BenchmarkTune", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkTuneSmall") {
		t.Fatalf("regressions = %v", regs)
	}

	// Overlapping prefixes gate each benchmark once, not twice.
	current["BenchmarkTuneSmall"] = Summary{NsPerOp: 600}
	regs, err = Gate(current, base, "BenchmarkTune,BenchmarkTuneSmall", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("overlapping prefixes duplicated the gate: %v", regs)
	}

	// Every prefix must match: one stale name in the list fails the
	// whole gate instead of silently retiring it.
	if _, err := Gate(current, base, "BenchmarkCluster,BenchmarkNope", 0.20); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkNope") {
		t.Fatalf("want stale-prefix error naming BenchmarkNope, got %v", err)
	}

	// Spaces around commas are tolerated; an all-empty list is not.
	if _, err := Gate(current, base, " BenchmarkCluster , BenchmarkTune ", 0.20); err != nil {
		t.Fatalf("spaced gate list rejected: %v", err)
	}
	if _, err := Gate(current, base, " , ", 0.20); err == nil {
		t.Fatal("want error for empty gate list")
	}
}

func TestGateAllocBudgets(t *testing.T) {
	base := Baseline{
		Benchmarks: map[string]float64{"BenchmarkCluster16Nodes/workers=1": 100},
		AllocBudgets: map[string]float64{
			"BenchmarkEngineStep":               8,
			"BenchmarkCluster16Nodes/workers=1": 1000,
		},
	}
	current := map[string]Summary{
		"BenchmarkCluster16Nodes/workers=1": {NsPerOp: 100, AllocsPerOp: 900, HasMem: true},
		"BenchmarkEngineStep":               {NsPerOp: 10, AllocsPerOp: 8, HasMem: true},
	}

	// At or under budget: clean. Budgets apply beyond the ns prefix
	// (EngineStep is budget-gated even though only Cluster* is
	// ns-gated).
	regs, err := Gate(current, base, "BenchmarkCluster16Nodes", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	// Over budget: reported, with no percentage slack.
	current["BenchmarkEngineStep"] = Summary{NsPerOp: 10, AllocsPerOp: 9, HasMem: true}
	regs, err = Gate(current, base, "BenchmarkCluster16Nodes", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op over budget") {
		t.Fatalf("regressions = %v", regs)
	}

	// Budgets without -benchmem data are a vacuous gate: the run
	// cannot have been checked.
	noMem := map[string]Summary{
		"BenchmarkCluster16Nodes/workers=1": {NsPerOp: 100},
		"BenchmarkEngineStep":               {NsPerOp: 10},
	}
	if _, err := Gate(noMem, base, "BenchmarkCluster16Nodes", 0.20); err == nil {
		t.Fatal("want error when no budgeted benchmark ran with -benchmem")
	}

	// A single budgeted benchmark missing from the run (renamed or
	// deleted) must also fail loudly — a stale budget is not a skip —
	// and the ns/op regressions found in the same run must ride along
	// with the error rather than being hidden by it.
	oneMissing := map[string]Summary{
		"BenchmarkCluster16Nodes/workers=1": {NsPerOp: 130, AllocsPerOp: 900, HasMem: true},
	}
	regs, err = Gate(oneMissing, base, "BenchmarkCluster16Nodes", 0.20)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkEngineStep") {
		t.Fatalf("want stale-budget error naming BenchmarkEngineStep, got %v", err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "workers=1") {
		t.Fatalf("ns regressions lost alongside the budget error: %v", regs)
	}
}

func TestGateBytesBudgets(t *testing.T) {
	base := Baseline{
		Benchmarks:   map[string]float64{"BenchmarkClusterDES256Nodes/serial": 100},
		AllocBudgets: map[string]float64{"BenchmarkClusterDES256Nodes/serial": 7000},
		BytesBudgets: map[string]float64{
			"BenchmarkClusterDES256Nodes/serial": 10_000_000,
			"BenchmarkClusterAutoscale":          4_000_000,
		},
	}
	current := map[string]Summary{
		"BenchmarkClusterDES256Nodes/serial": {NsPerOp: 100, BytesPerOp: 9_700_000, AllocsPerOp: 6600, HasMem: true},
		"BenchmarkClusterAutoscale":          {NsPerOp: 50, BytesPerOp: 4_000_000, AllocsPerOp: 24000, HasMem: true},
	}

	// At or under every ceiling: clean. Byte budgets, like allocation
	// budgets, apply beyond the ns prefix.
	regs, err := Gate(current, base, "BenchmarkClusterDES256Nodes", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	// One byte over: reported, with no percentage slack, and the
	// allocation budget of the same benchmark still holds.
	current["BenchmarkClusterAutoscale"] = Summary{NsPerOp: 50, BytesPerOp: 4_000_001, AllocsPerOp: 24000, HasMem: true}
	regs, err = Gate(current, base, "BenchmarkClusterDES256Nodes", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkClusterAutoscale") || !strings.Contains(regs[0], "B/op over budget") {
		t.Fatalf("regressions = %v", regs)
	}

	// Both budgets of a second benchmark over as well: three
	// regressions in all.
	current["BenchmarkClusterDES256Nodes/serial"] = Summary{NsPerOp: 100, BytesPerOp: 16_000_000, AllocsPerOp: 7001, HasMem: true}
	regs, _ = Gate(current, base, "BenchmarkClusterDES256Nodes", 0.20)
	if len(regs) != 3 {
		t.Fatalf("want the allocs/op and both B/op regressions, got %v", regs)
	}

	// A byte-budgeted benchmark without -benchmem data, or missing
	// from the run, is a stale budget: an error naming it once, even
	// when it also carries an allocation budget.
	noMem := map[string]Summary{
		"BenchmarkClusterDES256Nodes/serial": {NsPerOp: 100},
	}
	_, err = Gate(noMem, base, "BenchmarkClusterDES256Nodes", 0.20)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkClusterAutoscale") ||
		strings.Count(err.Error(), "BenchmarkClusterDES256Nodes/serial") != 1 {
		t.Fatalf("want one stale-budget error naming both benchmarks once, got %v", err)
	}
}

func TestBaselineRoundTripKeepsBudgets(t *testing.T) {
	b := Baseline{
		Benchmarks:   map[string]float64{"BenchmarkX": 100},
		AllocBudgets: map[string]float64{"BenchmarkX": 7},
		BytesBudgets: map[string]float64{"BenchmarkX": 4096},
	}
	var buf bytes.Buffer
	if err := b.WriteBaseline(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"bytes_budgets"`) {
		t.Fatalf("byte budgets not written under bytes_budgets:\n%s", buf.String())
	}
	got, err := ReadBaseline(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.AllocBudgets["BenchmarkX"] != 7 || got.BytesBudgets["BenchmarkX"] != 4096 {
		t.Fatalf("round-trip = %+v", got)
	}
}
