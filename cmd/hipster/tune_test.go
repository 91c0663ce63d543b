package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hipster/internal/tuning"
)

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
	space, err := tuning.DefaultSpace(tuneFleet.nodes)
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
// path: a tiny search writes an artifact, and -tuned replays its
// winner both under a training seed and on a held-out day.
func TestTuneAndReplayRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tuning_result.json")
	err := runTune([]string{"-nodes", "4", "-duration", "40",
		"-rounds", "1", "-neighbors", "1", "-restarts", "0", "-patience", "1",
		"-out", out})
	if err != nil {
		t.Fatalf("tune run failed: %v", err)
	}
	// Bare replay reproduces the tuning conditions under a training seed.
	if err := runCluster([]string{"-mode", "des", "-tuned", out,
		"-nodes", "4", "-duration", "40"}); err != nil {
		t.Fatalf("training-seed replay failed: %v", err)
	}
	// A fresh seed grades the winner on a day the search never saw.
	if err := runCluster([]string{"-mode", "des", "-tuned", out,
		"-nodes", "4", "-duration", "40", "-seed", "1042"}); err != nil {
		t.Fatalf("held-out replay failed: %v", err)
	}
}
