package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipster/internal/benchparse"
)

// TestBudgetsSurviveUpdateAndGate refreshes a baseline from a run and
// then gates runs against it: -update-baseline replaces the ns/op
// reference but keeps both hand-set budgets, and a run one byte over
// its B/op budget fails the gate.
func TestBudgetsSurviveUpdateAndGate(t *testing.T) {
	dir := t.TempDir()
	in, baseline := filepath.Join(dir, "bench.txt"), filepath.Join(dir, "baseline.json")
	writeRun := func(bytesPerOp string) {
		t.Helper()
		line := "BenchmarkClusterAutoscale-2   3   5000000 ns/op   " + bytesPerOp + " B/op   24347 allocs/op\n"
		if err := os.WriteFile(in, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := benchparse.Baseline{
		Benchmarks:   map[string]float64{"BenchmarkClusterAutoscale": 4_000_000},
		AllocBudgets: map[string]float64{"BenchmarkClusterAutoscale": 25_000},
		BytesBudgets: map[string]float64{"BenchmarkClusterAutoscale": 3_850_000},
	}
	f, err := os.Create(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.WriteBaseline(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	writeRun("3560000")
	if err := run(in, "text", baseline, "", "BenchmarkCluster", 0.20, true, "refresh"); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(baseline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := benchparse.ReadBaseline(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != "refresh" || got.Benchmarks["BenchmarkClusterAutoscale"] != 5_000_000 {
		t.Errorf("ns/op reference not refreshed: %+v", got)
	}
	if got.AllocBudgets["BenchmarkClusterAutoscale"] != 25_000 || got.BytesBudgets["BenchmarkClusterAutoscale"] != 3_850_000 {
		t.Errorf("budgets not kept: %+v", got)
	}

	if err := run(in, "text", baseline, "", "BenchmarkCluster", 0.20, false, ""); err != nil {
		t.Errorf("a run under its budgets failed the gate: %v", err)
	}
	writeRun("3850001")
	if err := run(in, "text", baseline, "", "BenchmarkCluster", 0.20, false, ""); err == nil || !strings.Contains(err.Error(), "1 regression(s)") {
		t.Errorf("a run one byte over its B/op budget passed the gate: %v", err)
	}
}
