package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"hipster"
)

// TestClusterOrphanFlags pins the guards that refuse what a run would
// silently ignore or rewrite: feature-dependent flags when their
// feature is off, and explicit values an engine would replace with its
// default. A typo'd invocation must fail loudly instead of silently
// measuring the wrong fleet.
func TestClusterOrphanFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the error must mention
	}{
		{
			name: "domains-without-des",
			args: []string{"-domains", "4"},
			want: []string{"-domains", "-mode=des"},
		},
		{
			name: "domains-with-interval-mode",
			args: []string{"-mode", "interval", "-domains", "2"},
			want: []string{"-domains", "-mode=des"},
		},
		{
			name: "mitigation-without-des",
			args: []string{"-mitigation", "hedged"},
			want: []string{"-mitigation", "-mode=des"},
		},
		{
			name: "policy-under-des",
			args: []string{"-mode", "des", "-policy", "octopus-man"},
			want: []string{"-policy", "-mode=interval"},
		},
		{
			name: "hedge-quantile-without-hedging",
			args: []string{"-mode", "des", "-hedge-quantile", "0.9"},
			want: []string{"-hedge-quantile", "-mitigation hedged"},
		},
		{
			name: "retries-without-des",
			args: []string{"-retries", "2"},
			want: []string{"-retries", "-mode=des"},
		},
		{
			name: "timeout-without-des",
			args: []string{"-timeout", "0.5"},
			want: []string{"-timeout", "-mode=des"},
		},
		{
			name: "breaker-without-des",
			args: []string{"-mode", "interval", "-breaker", "0.5"},
			want: []string{"-breaker", "-mode=des"},
		},
		{
			name: "rate-limit-without-des",
			args: []string{"-rate-limit", "100"},
			want: []string{"-rate-limit", "-mode=des"},
		},
		{
			name: "retry-backoff-without-retries",
			args: []string{"-mode", "des", "-retry-backoff", "0.1,1"},
			want: []string{"-retry-backoff", "-retries"},
		},
		{
			name: "hedge-budget-without-hedging",
			args: []string{"-mode", "des", "-hedge-budget", "10"},
			want: []string{"-hedge-budget", "-mitigation hedged"},
		},
		{
			name: "hedge-cancel-without-hedging",
			args: []string{"-mode", "des", "-hedge-cancel"},
			want: []string{"-hedge-cancel", "-mitigation hedged"},
		},
		{
			name: "learn-without-des",
			args: []string{"-learn"},
			want: []string{"-learn", "-mode=des"},
		},
		{
			name: "learn-under-interval-mode",
			args: []string{"-mode", "interval", "-learn"},
			want: []string{"-learn", "-mode=des"},
		},
		{
			name: "alpha-without-learn",
			args: []string{"-mode", "des", "-alpha", "0.5"},
			want: []string{"-alpha", "-learn"},
		},
		{
			name: "learn-secs-without-learn",
			args: []string{"-learn-secs", "100"},
			want: []string{"-learn-secs", "-learn"},
		},
		{
			name: "federate-under-des-without-learn",
			args: []string{"-mode", "des", "-federate"},
			want: []string{"-federate", "-mode=interval or -mode=des -learn"},
		},
		{
			name: "batch-under-des-learn",
			args: []string{"-mode", "des", "-learn", "-batch", "calculix"},
			want: []string{"-batch", "-mode=interval"},
		},
		{
			name: "faults-without-des",
			args: []string{"-faults"},
			want: []string{"-faults", "-mode=des"},
		},
		{
			name: "faults-under-interval-mode",
			args: []string{"-mode", "interval", "-faults"},
			want: []string{"-faults", "-mode=des"},
		},
		{
			name: "crash-rate-without-faults",
			args: []string{"-mode", "des", "-crash-rate", "0.1"},
			want: []string{"-crash-rate", "-faults"},
		},
		{
			name: "slow-factor-without-faults",
			args: []string{"-mode", "des", "-slow-factor", "0.3"},
			want: []string{"-slow-factor", "-faults"},
		},
		{
			name: "partition-without-faults",
			args: []string{"-mode", "des", "-partition", "0.05"},
			want: []string{"-partition", "-faults"},
		},
		{
			name: "spot-flags-without-faults",
			args: []string{"-mode", "des", "-spot-fraction", "0.25", "-spot-notice", "3"},
			want: []string{"-spot-fraction", "-spot-notice", "-faults"},
		},
		{
			name: "hedge-quantile-under-work-stealing",
			args: []string{"-mode", "des", "-mitigation", "work-stealing", "-hedge-quantile", "0.9"},
			want: []string{"-hedge-quantile", "-mitigation hedged or predictive"},
		},
		{
			name: "sync-interval-zero",
			args: []string{"-nodes", "2", "-federate", "-sync-interval", "0", "-duration", "2", "-series=false"},
			want: []string{"-sync-interval", "at least 1"},
		},
		{
			name: "min-nodes-zero-under-des",
			args: []string{"-mode", "des", "-nodes", "2", "-autoscale", "-min-nodes", "0",
				"-pattern", "constant:0.5", "-duration", "2", "-series=false"},
			want: []string{"-min-nodes", "at least 1"},
		},
		{
			name: "duration-negative",
			args: []string{"-nodes", "2", "-duration", "-5", "-series=false"},
			want: []string{"-duration", "negative"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runCluster(tc.args)
			if err == nil {
				t.Fatalf("runCluster(%v) accepted orphaned flags", tc.args)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("runCluster(%v) error %q does not mention %q", tc.args, err, want)
				}
			}
		})
	}
}

// TestRunRejectsNegativeDuration checks the single-node command refuses
// a negative horizon instead of simulating the pattern's whole day.
func TestRunRejectsNegativeDuration(t *testing.T) {
	err := run("memcached", "hipster-in", "diurnal", -5, 42, "", "", false)
	if err == nil || !strings.Contains(err.Error(), "-duration") {
		t.Fatalf("run with -duration -5: error %v, want one naming -duration", err)
	}
}

// TestRejectsNonFiniteDuration checks a NaN or infinite -duration
// fails the single-node command and both cluster modes with an error
// naming the horizon: a NaN horizon used to run no interval and exit
// 0, and an infinite one never stopped.
func TestRejectsNonFiniteDuration(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		want := fmt.Sprintf("horizon %v; want a finite number of seconds > 0", d)
		if err := run("memcached", "hipster-in", "diurnal", d, 42, "", "", false); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run with -duration %v: error %v, want one containing %q", d, err, want)
		}
		for _, mode := range []string{"interval", "des"} {
			err := runCluster([]string{"-mode", mode, "-nodes", "2",
				"-pattern", "constant:0.5", "-duration", fmt.Sprint(d), "-series=false"})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("cluster -mode %s -duration %v: error %v, want one containing %q", mode, d, err, want)
			}
		}
	}
}

// TestClusterHedgeQuantileValidation pins the CLI-boundary rejection of
// an explicit -hedge-quantile outside (0, 1): the engine cannot tell an
// explicit zero from the unset zero value (it would silently default to
// 0.95), so the command must refuse it before options are built.
func TestClusterHedgeQuantileValidation(t *testing.T) {
	for _, q := range []string{"0", "-0.5", "1", "1.5"} {
		err := runCluster([]string{"-mode", "des", "-mitigation", "hedged",
			"-hedge-quantile", q, "-pattern", "constant:0.5", "-duration", "2", "-series=false"})
		if err == nil {
			t.Fatalf("runCluster accepted -hedge-quantile=%s", q)
		}
		if !strings.Contains(err.Error(), "-hedge-quantile") {
			t.Errorf("-hedge-quantile=%s error %q does not name the flag", q, err)
		}
	}
}

// TestClusterFaultFlagValidation pins the CLI-boundary rejection of
// out-of-range fault knobs. -slow-factor and -spot-notice matter most:
// the engine defaults their unset zero values (to 0.5 and 2), so an
// explicit zero would silently turn into the default instead of
// meaning "no degradation"/"no notice".
func TestClusterFaultFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"crash-rate-negative", []string{"-crash-rate", "-0.1"}},
		{"crash-rate-above-one", []string{"-crash-rate", "1.5"}},
		{"slow-factor-zero", []string{"-slow-factor", "0"}},
		{"slow-factor-above-one", []string{"-slow-factor", "1.5"}},
		{"partition-above-one", []string{"-partition", "2"}},
		{"spot-fraction-negative", []string{"-spot-fraction", "-0.5"}},
		{"spot-notice-zero", []string{"-spot-notice", "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-mode", "des", "-faults"}, tc.args...)
			args = append(args, "-pattern", "constant:0.5", "-duration", "2", "-series=false")
			err := runCluster(args)
			if err == nil {
				t.Fatalf("runCluster(%v) accepted an out-of-range fault knob", args)
			}
			if !strings.Contains(err.Error(), tc.args[0]) {
				t.Errorf("runCluster(%v) error %q does not name %s", args, err, tc.args[0])
			}
		})
	}
}

// TestClusterDESFaultsRun smoke-tests the fault-injection surface
// through the CLI path: every fault class enabled, the predictive
// mitigation driving hedges and migrations, sharded.
func TestClusterDESFaultsRun(t *testing.T) {
	err := runCluster([]string{"-mode", "des", "-nodes", "4", "-domains", "2",
		"-faults", "-crash-rate", "0.05", "-slow-factor", "0.4", "-partition", "0.02",
		"-spot-fraction", "0.5", "-spot-notice", "2",
		"-mitigation", "predictive", "-hedge-quantile", "0.9",
		"-pattern", "constant:0.6", "-duration", "20", "-series=false"})
	if err != nil {
		t.Fatalf("fault-injection DES run failed: %v", err)
	}
}

// TestClusterRetryBackoffParse pins the base,cap[,jitter] flag format.
func TestClusterRetryBackoffParse(t *testing.T) {
	for _, bad := range []string{"0.1", "a,b", "0.1,1,0.2,9", ""} {
		if _, err := parseBackoff(bad); err == nil {
			t.Errorf("parseBackoff(%q) accepted a malformed schedule", bad)
		}
	}
	b, err := parseBackoff("0.1, 2, 0.25")
	if err != nil {
		t.Fatal(err)
	}
	if b.Base != 0.1 || b.Cap != 2 || b.Jitter != 0.25 {
		t.Errorf("parseBackoff = %+v", b)
	}
	if b, err = parseBackoff("0.1,2"); err != nil || b.Jitter != 0 {
		t.Errorf("two-field backoff = %+v, %v", b, err)
	}
}

// TestClusterDESResilienceRun smoke-tests the full resilience surface
// through the CLI path: retries with backoff, deadlines, breaker, rate
// limiting, hedge budgets and cancellation, sharded.
func TestClusterDESResilienceRun(t *testing.T) {
	err := runCluster([]string{"-mode", "des", "-nodes", "4", "-domains", "2",
		"-mitigation", "hedged", "-hedge-cancel", "-hedge-budget", "20",
		"-retries", "2", "-retry-backoff", "0.05,1,0.1", "-timeout", "0.5",
		"-breaker", "0.5", "-rate-limit", "500",
		"-pattern", "constant:0.7", "-duration", "10", "-series=false"})
	if err != nil {
		t.Fatalf("resilience DES run failed: %v", err)
	}
}

// TestClusterDomainsValidation checks that a domain count the engine
// rejects surfaces as a command error rather than a crash.
func TestClusterDomainsValidation(t *testing.T) {
	err := runCluster([]string{"-mode", "des", "-nodes", "4", "-domains", "8",
		"-pattern", "constant:0.5", "-duration", "2", "-series=false"})
	if err == nil {
		t.Fatal("runCluster accepted more domains than nodes")
	}
}

// TestClusterRejectsNonFiniteLoad checks a NaN pattern load fails the
// command in both modes with an error naming the load, instead of a DES
// run reporting no requests at 100% QoS or an interval run reporting
// NaN fleet energy.
func TestClusterRejectsNonFiniteLoad(t *testing.T) {
	for _, mode := range []string{"des", "interval"} {
		err := runCluster([]string{"-mode", mode, "-nodes", "4",
			"-pattern", "constant:NaN", "-duration", "2", "-series=false"})
		if err == nil || !strings.Contains(err.Error(), "load NaN") {
			t.Errorf("-mode %s: error %v, want one naming the NaN load", mode, err)
		}
	}
}

// TestRunRejectsNonFiniteLoad is TestClusterRejectsNonFiniteLoad for
// the single-node command, which used to report NaN energy and exit 0.
func TestRunRejectsNonFiniteLoad(t *testing.T) {
	err := run("memcached", "hipster-in", "constant:NaN", 5, 42, "", "", false)
	if err == nil || !strings.Contains(err.Error(), "engine: pattern returned load NaN") {
		t.Fatalf("run with -pattern constant:NaN: error %v, want one naming the NaN load", err)
	}
}

// TestRejectsUnknownPattern checks the single-node command and both
// cluster modes refuse an unregistered -pattern through the shared name
// table: the error wraps hipster.ErrUnknownName and lists the valid
// names.
func TestRejectsUnknownPattern(t *testing.T) {
	check := func(how string, err error) {
		t.Helper()
		if !errors.Is(err, hipster.ErrUnknownName) || !strings.Contains(err.Error(), "constant:<frac>") {
			t.Errorf("%s -pattern nope: error %v, want ErrUnknownName listing the patterns", how, err)
		}
	}
	check("hipster", run("memcached", "hipster-in", "nope", 5, 42, "", "", false))
	for _, mode := range []string{"interval", "des"} {
		check("hipster cluster -mode "+mode, runCluster([]string{"-mode", mode, "-nodes", "2",
			"-pattern", "nope", "-duration", "2", "-series=false"}))
	}
}

// TestRejectsOutOfRangeConstant checks the single-node command, both
// cluster modes and the tuner refuse a constant load fraction outside
// [0, 1], naming it, where the pattern used to clamp it silently:
// constant:-1 ran an empty fleet and constant:1.5 ran at full load.
func TestRejectsOutOfRangeConstant(t *testing.T) {
	for _, c := range []struct{ pattern, value string }{{"constant:-1", "-1"}, {"constant:1.5", "1.5"}} {
		check := func(how string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "load fraction "+c.value+" outside [0, 1]") {
				t.Errorf("%s -pattern %s: error %v, want one naming fraction %s", how, c.pattern, err, c.value)
			}
		}
		check("hipster", run("memcached", "hipster-in", c.pattern, 5, 42, "", "", false))
		for _, mode := range []string{"interval", "des"} {
			check("hipster cluster -mode "+mode, runCluster([]string{"-mode", mode, "-nodes", "2",
				"-pattern", c.pattern, "-duration", "2", "-series=false"}))
		}
		check("hipster tune", runTune([]string{"-nodes", "2", "-duration", "5", "-pattern", c.pattern,
			"-out", filepath.Join(t.TempDir(), "a.json")}))
	}
}

// TestClusterDESDomainsRun smoke-tests a sharded DES invocation end to
// end through the CLI path.
func TestClusterDESDomainsRun(t *testing.T) {
	err := runCluster([]string{"-mode", "des", "-nodes", "4", "-domains", "2",
		"-pattern", "constant:0.5", "-duration", "5", "-series=false"})
	if err != nil {
		t.Fatalf("sharded DES run failed: %v", err)
	}
}

// TestClusterDESLearnRun smoke-tests the learn-enabled DES through the
// CLI path with hyperparameter overrides, federation, autoscaling and
// sharding all composed — the full surface the -learn flag unlocks.
func TestClusterDESLearnRun(t *testing.T) {
	err := runCluster([]string{"-mode", "des", "-learn", "-nodes", "4", "-domains", "2",
		"-alpha", "0.5", "-gamma", "0.85", "-learn-secs", "10", "-bucket-frac", "0.1",
		"-federate", "-sync-interval", "3", "-autoscale", "-min-nodes", "2", "-warmup-intervals", "1",
		"-workload", "websearch", "-pattern", "constant:0.5", "-duration", "20", "-series=false"})
	if err != nil {
		t.Fatalf("learn-enabled DES run failed: %v", err)
	}
}

// TestClusterDESLearnPolicies checks every named policy can drive the
// learning loop (the loop only requires a Policy, not an RL table).
func TestClusterDESLearnPolicies(t *testing.T) {
	for _, pol := range []string{"octopus-man", "static-big"} {
		if err := runCluster([]string{"-mode", "des", "-learn", "-policy", pol, "-nodes", "2",
			"-pattern", "constant:0.5", "-duration", "5", "-series=false"}); err != nil {
			t.Fatalf("learn with -policy %s failed: %v", pol, err)
		}
	}
}
