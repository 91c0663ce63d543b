package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMain lets the test binary serve as its own child process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(childEnv); ok {
		childMain(raw)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestNamesMatchBenchmarkJSON keeps the metric and workload names in
// the code and in BENCHMARK.json from drifting apart.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, got, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", file.PerLayer, perLayer)
	}
}

// TestWorkloadsSmall runs every workload at 1/50 of its horizon, untraced
// and traced: repetitions must agree, the traced run's model hash must
// equal the untraced ones, no run may fail, and every metric and span
// must be reported.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := config{seed: 42, reps: 2, probes: 2, scale: 0.02}
			rep, err := measure(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rep, endToEnd, cfg.probes+cfg.reps)

			cfg.reps, cfg.trace, cfg.spans = 1, true, t.TempDir()
			traced, err := measure(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, traced, perLayer, cfg.reps+1)
			if traced.hash != rep.hash {
				t.Errorf("traced runs' model hash %s differs from the untraced %s", traced.hash, rep.hash)
			}
			path := filepath.Join(cfg.spans, "spans-"+w.name+"-42.jsonl")
			if got, want := countIntervals(t, path), int(w.scaledHorizon(cfg.scale)); got != want {
				t.Errorf("spans file has %d interval spans, want %d", got, want)
			}
		})
	}
}

func check(t *testing.T, rep report, specs []metricSpec, runs int) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted != runs {
		t.Fatalf("correct=%v attempted=%d failed=%d (want %d runs): %v", rep.Correct, rep.Attempted, rep.Failed, runs, rep.problems)
	}
	if len(rep.Metrics) != len(specs) {
		t.Errorf("reported %d metrics, want %d", len(rep.Metrics), len(specs))
	}
	for _, m := range specs {
		if v, ok := rep.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
		}
	}
}

func countIntervals(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span %q: %v", sc.Text(), err)
		}
		if s.Name == "interval" {
			n++
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}
