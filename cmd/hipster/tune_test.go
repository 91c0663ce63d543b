package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hipster"
	"hipster/internal/report"
	"hipster/internal/tuning"
)

// tinyTune is the smallest tune budget, for cases that must fail before
// the search but would run it should their guard ever lapse.
var tinyTune = []string{"-nodes", "2", "-duration", "5", "-rounds", "1", "-neighbors", "1",
	"-patience", "1", "-restarts", "0", "-out", os.DevNull}

// TestTuneFlagValidation pins the tune subcommand's CLI-boundary
// checks: every range violation must fail loudly, naming the flag,
// before any evaluation runs.
func TestTuneFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the error must mention
	}{
		{
			name: "nodes-too-small",
			args: []string{"-nodes", "1"},
			want: []string{"-nodes", "at least 2"},
		},
		{
			name: "duration-zero",
			args: []string{"-duration", "0"},
			want: []string{"-duration", "positive"},
		},
		{
			name: "rounds-zero",
			args: []string{"-rounds", "0"},
			want: []string{"-rounds", "at least 1"},
		},
		{
			name: "neighbors-zero",
			args: []string{"-neighbors", "0"},
			want: []string{"-neighbors", "at least 1"},
		},
		{
			name: "patience-zero",
			args: []string{"-patience", "0"},
			want: []string{"-patience", "at least 1"},
		},
		{
			name: "restarts-negative",
			args: []string{"-restarts", "-1"},
			want: []string{"-restarts", "negative"},
		},
		{
			name: "negative-weight",
			args: []string{"-w-qos", "-2"},
			want: []string{"-w-qos", "negative"},
		},
		{
			name: "empty-out",
			args: []string{"-out", ""},
			want: []string{"-out"},
		},
		{
			name: "malformed-train-seeds",
			args: []string{"-train-seeds", "1,x"},
			want: []string{"-train-seeds"},
		},
		{
			name: "unknown-workload",
			args: []string{"-workload", "hadoop"},
			want: []string{"hadoop"},
		},
		{
			name: "unknown-pattern",
			args: []string{"-pattern", "sawtooth"},
			want: []string{"sawtooth"},
		},
		{
			// The tuner reads an all-zero objective as unset; a tiny
			// budget keeps the run short should the guard ever lapse.
			name: "all-zero-weights",
			args: []string{"-w-p99", "0", "-w-qos", "0", "-w-power", "0", "-nodes", "2", "-duration", "5",
				"-rounds", "1", "-neighbors", "1", "-patience", "1", "-restarts", "0", "-out", os.DevNull},
			want: []string{"-w-p99", "-w-qos", "-w-power"},
		},
		{
			// The evaluator turns a zero autoscale floor into 2.
			name: "min-nodes-zero",
			args: []string{"-min-nodes", "0", "-nodes", "2", "-duration", "5",
				"-rounds", "1", "-neighbors", "1", "-patience", "1", "-restarts", "0", "-out", os.DevNull},
			want: []string{"-min-nodes", "at least 1"},
		},
		{
			// The evaluator turns an empty workload into websearch.
			name: "empty-workload",
			args: []string{"-workload", ""},
			want: []string{"-workload"},
		},
		{
			// A NaN budget would drop the budget silently, and an infinite
			// one would fail only when the artifact is written, after the
			// whole search. Both must fail before any evaluation.
			name: "power-cap-nan",
			args: append([]string{"-power-cap", "NaN"}, tinyTune...),
			want: []string{"non-finite objective weight"},
		},
		{
			name: "power-cap-inf",
			args: append([]string{"-power-cap", "Inf"}, tinyTune...),
			want: []string{"non-finite objective weight"},
		},
		{
			name: "w-p99-nan",
			args: append([]string{"-w-p99", "NaN"}, tinyTune...),
			want: []string{"non-finite objective weight"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runTune(tc.args)
			if err == nil {
				t.Fatalf("runTune(%v) accepted an invalid flag", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("runTune(%v) error %q does not mention %q", tc.args, err, want)
				}
			}
		})
	}
}

// TestTunedFlagGuards pins the -tuned replay guards: the flag needs
// -mode=des, and any flag the artifact dictates must be rejected so a
// replay cannot silently diverge from the tuned configuration.
func TestTunedFlagGuards(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "tuned-without-des",
			args: []string{"-tuned", "x.json"},
			want: []string{"-tuned", "-mode=des"},
		},
		{
			name: "tuned-under-interval-mode",
			args: []string{"-mode", "interval", "-tuned", "x.json"},
			want: []string{"-tuned", "-mode=des"},
		},
		{
			name: "tuned-with-mitigation",
			args: []string{"-mode", "des", "-tuned", "x.json", "-mitigation", "hedged"},
			want: []string{"-mitigation", "conflict", "-tuned"},
		},
		{
			name: "tuned-with-learn-knobs",
			args: []string{"-mode", "des", "-tuned", "x.json", "-learn", "-alpha", "0.5"},
			want: []string{"-learn", "-alpha", "conflict", "-tuned"},
		},
		{
			name: "tuned-with-domains",
			args: []string{"-mode", "des", "-tuned", "x.json", "-domains", "2"},
			want: []string{"-domains", "conflict", "-tuned"},
		},
		{
			name: "tuned-with-autoscale",
			args: []string{"-mode", "des", "-tuned", "x.json", "-autoscale"},
			want: []string{"-autoscale", "conflict", "-tuned"},
		},
		{
			name: "tuned-with-resilience-knobs",
			args: []string{"-mode", "des", "-tuned", "x.json", "-retries", "1", "-timeout", "0.5"},
			want: []string{"-retries", "-timeout", "conflict", "-tuned"},
		},
		{
			name: "tuned-with-faults",
			args: []string{"-mode", "des", "-tuned", "x.json", "-faults"},
			want: []string{"-faults", "conflict", "-tuned"},
		},
		{
			name: "tuned-with-batch",
			args: []string{"-mode", "des", "-tuned", "x.json", "-batch", "nosuchprog"},
			want: []string{"-batch", "conflict", "-tuned"},
		},
		{
			name: "tuned-conflicts-in-lexical-order",
			args: []string{"-mode", "des", "-tuned", "x.json", "-timeout", "0.5", "-batch", "calculix", "-alpha", "0.5"},
			want: []string{"-alpha, -batch, -timeout conflict(s) with -tuned"},
		},
		{
			name: "tuned-with-zero-nodes",
			args: []string{"-mode", "des", "-tuned", "x.json", "-nodes", "0"},
			want: []string{"-nodes", "at least 1"},
		},
		{
			name: "tuned-with-zero-min-nodes",
			args: []string{"-mode", "des", "-tuned", "x.json", "-min-nodes", "0"},
			want: []string{"-min-nodes", "at least 1"},
		},
		{
			name: "tuned-with-zero-duration",
			args: []string{"-mode", "des", "-tuned", "x.json", "-duration", "0"},
			want: []string{"-duration", "-tuned"},
		},
		{
			name: "tuned-with-empty-workload",
			args: []string{"-mode", "des", "-tuned", "x.json", "-workload", ""},
			want: []string{"-workload"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runCluster(tc.args)
			if err == nil {
				t.Fatalf("runCluster(%v) accepted a guarded -tuned invocation", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("runCluster(%v) error %q does not mention %q", tc.args, err, want)
				}
			}
		})
	}
}

// TestTunedRejectsEveryUnhonouredFlag sets each cluster flag outside
// the replay set alongside -tuned and expects a conflict, so a flag
// added later is refused under -tuned until it is marked honoured.
func TestTunedRejectsEveryUnhonouredFlag(t *testing.T) {
	fs, _ := newClusterFlags()
	fs.VisitAll(func(fl *flag.Flag) {
		if slices.Contains(replayFlags, fl.Name) {
			return
		}
		err := runCluster([]string{"-mode", "des", "-tuned", "x.json", "-" + fl.Name + "=" + fl.DefValue})
		if err == nil || !strings.Contains(err.Error(), "-"+fl.Name+" conflict") {
			t.Errorf("-%s with -tuned: error %v, want a conflict naming it", fl.Name, err)
		}
	})
}

// TestTunerDefaultsMatchFlags pins that the tuner's untuned point is
// the CLI's untuned run: every DefaultSpace dimension that shares a
// name with a cluster flag has that flag's default. domains is the one
// exception — the tuner's 1 and the flag's 0 both mean one fleet-wide
// domain.
func TestTunerDefaultsMatchFlags(t *testing.T) {
	fs, _ := newClusterFlags()
	space, err := tuning.DefaultSpace(tuning.DefaultFleet().Nodes)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, d := range space.Dims {
		fl := fs.Lookup(d.Name)
		if fl == nil {
			continue
		}
		shared++
		want := strconv.FormatFloat(d.Default, 'g', -1, 64)
		switch {
		case d.Kind == tuning.Categorical:
			want = d.Values[int(d.Default)]
		case d.Name == tuning.DimDomains:
			if d.Default != 1 || fl.DefValue != "0" {
				t.Errorf("domains: tuner default %v, flag default %s; want 1 and 0 (one fleet-wide domain)", d.Default, fl.DefValue)
			}
			continue
		}
		if fl.DefValue != want {
			t.Errorf("dimension %s defaults to %s, flag -%s to %s", d.Name, want, d.Name, fl.DefValue)
		}
	}
	if shared != 8 {
		t.Errorf("%d DefaultSpace dimensions share a cluster flag name, want 8", shared)
	}
}

// TestTunedMissingArtifact checks an unreadable artifact path surfaces
// as a command error rather than a crash.
func TestTunedMissingArtifact(t *testing.T) {
	err := runCluster([]string{"-mode", "des", "-tuned",
		filepath.Join(t.TempDir(), "absent.json")})
	if err == nil {
		t.Fatal("runCluster replayed a nonexistent artifact")
	}
}

// TestTuneAndReplayRun drives the full offline loop through the CLI
// path: a tiny search on a non-default fleet writes an artifact that
// records the fleet, and -tuned replays its winner on that fleet with
// no fleet flag given — under a training seed, where it must print
// exactly that seed's ledger metrics, and on a held-out day. An
// artifact without a fleet replays the tuner's default fleet, and one
// whose fleet names an unknown workload or pattern is refused.
func TestTuneAndReplayRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "tuning_result.json")
	err := runTune([]string{"-nodes", "3", "-duration", "20", "-min-nodes", "1", "-pattern", "spike",
		"-rounds", "1", "-neighbors", "1", "-restarts", "0", "-patience", "1", "-workers", "1",
		"-out", out})
	if err != nil {
		t.Fatalf("tune run failed: %v", err)
	}
	res, err := hipster.ReadTuneResult(out)
	if err != nil {
		t.Fatal(err)
	}
	want := hipster.TuneFleetEvaluator{Nodes: 3, Workload: "websearch", Pattern: "spike", Horizon: 20, MinNodes: 1}
	if res.Fleet == nil || *res.Fleet != want {
		t.Fatalf("artifact fleet = %+v, want %+v", res.Fleet, want)
	}

	// A bare replay under training seed 42 is the ledger's first
	// per-seed entry for the winner, to the printed digit.
	got := string(captureStdout(t, func() error {
		return runCluster([]string{"-mode", "des", "-tuned", out})
	}))
	m := res.Winner.PerSeed[0]
	for _, line := range []string{
		"nodes=3 workload=websearch duration=20s seed=42",
		fmt.Sprintf("latency         : p99 %s ms", report.F2(m.P99*1000)),
		"QoS attainment  : " + report.Pct(m.QoSAttainment*100),
		fmt.Sprintf("fleet energy    : %s J (mean %s W)", report.F0(m.EnergyJ), report.F2(m.MeanPowerW)),
		"objective score : " + report.F4(res.Weights.Score(m)),
	} {
		if !strings.Contains(got, line) {
			t.Errorf("bare replay does not print %q:\n%s", line, got)
		}
	}
	// A fresh seed grades the winner on a day the search never saw.
	if err := runCluster([]string{"-mode", "des", "-tuned", out, "-seed", "1042"}); err != nil {
		t.Fatalf("held-out replay failed: %v", err)
	}

	// A fleet flag that breaks the recorded fleet is refused, naming
	// the flag and the field it set: a tuned fleet has at least 2
	// nodes, a floor of at most its size and a finite horizon.
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-nodes", "1"}, []string{"-nodes 1", "nodes 1: want at least 2"}},
		{[]string{"-min-nodes", "4"}, []string{"-min-nodes 4", "min_nodes 4: want 1 to nodes (3)"}},
		{[]string{"-nodes", "2", "-min-nodes", "3"}, []string{"-min-nodes 3 -nodes 2", "min_nodes 3"}},
		{[]string{"-duration", "NaN"}, []string{"-duration NaN", "horizon_s NaN"}},
	} {
		err := runCluster(append([]string{"-mode", "des", "-tuned", out}, tc.args...))
		if err == nil {
			t.Errorf("replay with %v accepted", tc.args)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("replay with %v: error %q does not mention %q", tc.args, err, want)
			}
		}
	}

	// Rewrite the artifact's fleet: drop it, or name what is not
	// registered.
	rewrite := func(name string, edit func(fleet map[string]any) any) string {
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var art map[string]any
		if err := json.Unmarshal(b, &art); err != nil {
			t.Fatal(err)
		}
		art["fleet"] = edit(art["fleet"].(map[string]any))
		if art["fleet"] == nil {
			delete(art, "fleet")
		}
		if b, err = json.Marshal(art); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	noFleet := rewrite("no-fleet.json", func(map[string]any) any { return nil })
	got = string(captureStdout(t, func() error {
		return runCluster([]string{"-mode", "des", "-tuned", noFleet, "-duration", "5"})
	}))
	d := hipster.DefaultTuneFleet()
	if header := fmt.Sprintf("nodes=%d workload=%s duration=5s", d.Nodes, d.Workload); !strings.Contains(got, header) {
		t.Errorf("replay of an artifact without a fleet does not print %q:\n%s", header, got)
	}
	for field, name := range map[string]string{"workload": "hadoop", "pattern": "sawtooth"} {
		path := rewrite("unknown-"+field+".json", func(fleet map[string]any) any {
			fleet[field] = name
			return fleet
		})
		err := runCluster([]string{"-mode", "des", "-tuned", path})
		if !errors.Is(err, hipster.ErrUnknownName) || !strings.Contains(err.Error(), name) {
			t.Errorf("replay of a fleet with %s %q: error %v, want ErrUnknownName naming it", field, name, err)
		}
	}
}
