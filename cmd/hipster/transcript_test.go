package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the transcript goldens from this run")

// TestTranscripts pins what the command prints: each invocation's
// stdout is compared byte for byte against testdata/<name>.golden, so a
// refactor of flag parsing or option assembly that changes any run's
// numbers or report layout fails here. The cases cover the single-node
// command, both interval-mode paths, the DES mitigation, fault,
// learning and resilience paths, and the offline tune + -tuned replay
// loop (the replay reads the artifact the tune case writes, so the two
// run in order). Every cluster case passes -workers because the header
// prints the resolved worker count. After an intentional output change,
// regenerate with:
//
//	go test ./cmd/hipster -run TestTranscripts -update
func TestTranscripts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Byte-exact float formatting is pinned to amd64; other
		// architectures may fuse multiply-adds and shift a rounded digit.
		t.Skipf("goldens pinned to amd64 float semantics, running on %s", runtime.GOARCH)
	}
	art := filepath.Join(t.TempDir(), "tuning_result.json")
	cases := []struct {
		name string
		run  func() error
	}{
		{"node", func() error {
			return run("websearch", "hipster-co", "diurnal", 300, 7, "calculix, lbm", "", true)
		}},
		{"interval", func() error {
			return runCluster([]string{"-nodes", "4", "-workers", "2", "-splitter", "least-loaded",
				"-batch", "calculix", "-duration", "120"})
		}},
		{"interval-elastic", func() error {
			return runCluster([]string{"-nodes", "6", "-workers", "2", "-pattern", "spike",
				"-federate", "-sync-interval", "5", "-staleness", "10", "-sync-dropout", "0.2",
				"-autoscale", "-min-nodes", "2", "-scale-policy", "qos-headroom", "-duration", "240"})
		}},
		{"des-hedged", func() error {
			return runCluster([]string{"-mode", "des", "-nodes", "4", "-workers", "2",
				"-workload", "websearch", "-pattern", "constant:0.6",
				"-mitigation", "hedged", "-hedge-quantile", "0.9", "-duration", "20"})
		}},
		{"des-predictive-faults", func() error {
			return runCluster([]string{"-mode", "des", "-nodes", "4", "-domains", "2", "-workers", "2",
				"-faults", "-crash-rate", "0.05", "-slow-factor", "0.4", "-partition", "0.02",
				"-spot-fraction", "0.5", "-spot-notice", "2", "-mitigation", "predictive",
				"-pattern", "constant:0.6", "-duration", "20", "-series=false"})
		}},
		{"des-learn", func() error {
			return runCluster([]string{"-mode", "des", "-learn", "-nodes", "4", "-domains", "2", "-workers", "2",
				"-alpha", "0.5", "-gamma", "0.85", "-learn-secs", "10", "-bucket-frac", "0.1",
				"-federate", "-sync-interval", "3", "-sync-dropout", "0.1", "-merge", "max-confidence",
				"-autoscale", "-min-nodes", "2", "-scale-policy", "queue-depth", "-warmup-intervals", "1",
				"-workload", "websearch", "-pattern", "spike", "-duration", "30"})
		}},
		{"des-resilience", func() error {
			return runCluster([]string{"-mode", "des", "-nodes", "4", "-domains", "2", "-workers", "2",
				"-mitigation", "hedged", "-hedge-cancel", "-hedge-budget", "20",
				"-retries", "2", "-retry-backoff", "0.05,1,0.1", "-timeout", "0.5",
				"-breaker", "0.5", "-rate-limit", "500",
				"-pattern", "constant:0.7", "-duration", "10", "-series=false"})
		}},
		{"tune", func() error {
			return runTune([]string{"-nodes", "2", "-duration", "10", "-rounds", "1", "-neighbors", "1",
				"-patience", "1", "-restarts", "1", "-workers", "1", "-out", art})
		}},
		{"tuned-replay", func() error {
			return runCluster([]string{"-mode", "des", "-tuned", art, "-workers", "1", "-seed", "1042"})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := bytes.ReplaceAll(captureStdout(t, tc.run), []byte(art), []byte("$ARTIFACT"))
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("output drifted from %s (rerun with -update if intentional)\n--- want ---\n%s--- got ---\n%s",
					golden, want, got)
			}
		})
	}
}

// captureStdout runs f with os.Stdout redirected to a temp file and
// returns what it printed; f failing fails the test.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
