package fleettest_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/faults"
	"hipster/internal/fleettest"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/resilience"
	"hipster/internal/workload"
)

var update = flag.Bool("update", false, "regenerate the DES matrix golden from this run")

// scriptedScale proposes the active count its script gives for the
// interval, ignoring the fleet.
type scriptedScale func(interval int) int

func (scriptedScale) Name() string { return "script" }

func (p scriptedScale) Desired(ctx autoscale.Context) int { return p(ctx.Interval) }

// matrixAxis is one dimension of the DES matrix: named settings, each
// applied to a fresh Options.
type matrixAxis struct {
	name string
	opts []matrixOpt
}

type matrixOpt struct {
	name  string
	apply func(*clusterdes.Options)
}

// desMatrix is the product the golden pins: every mitigation at one
// and three routing domains, with and without every fault class, the
// full resilience layer, two autoscale shapes and federated learning.
// Most cross-domain and fault paths have no other absolute pin, so a
// refactor of the boundary must leave every entry byte-identical.
var desMatrix = []matrixAxis{
	{"mit", []matrixOpt{
		{"none", func(o *clusterdes.Options) {}},
		{"hedged", func(o *clusterdes.Options) { o.Mitigation = clusterdes.Hedged{} }},
		{"stealing", func(o *clusterdes.Options) { o.Mitigation = clusterdes.WorkStealing{} }},
		{"predictive", func(o *clusterdes.Options) { o.Mitigation = clusterdes.Predictive{} }},
	}},
	{"dom", []matrixOpt{
		{"1", func(o *clusterdes.Options) { o.Domains = 1 }},
		{"3", func(o *clusterdes.Options) { o.Domains = 3 }},
	}},
	{"faults", []matrixOpt{
		{"off", func(o *clusterdes.Options) {}},
		{"all", func(o *clusterdes.Options) {
			o.Faults = &faults.Options{
				CrashRate: 0.04, DownIntervals: 4,
				SlowRate: 0.05, SlowFactor: 0.4,
				PartitionRate: 0.06, PartitionIntervals: 5,
				SpotFraction: 0.4, RevokeRate: 0.1, SpotNotice: 2,
			}
		}},
	}},
	{"resil", []matrixOpt{
		{"off", func(o *clusterdes.Options) {}},
		{"all", func(o *clusterdes.Options) {
			o.Resilience = &resilience.Options{
				MaxRetries:   2,
				Timeout:      0.5,
				Backoff:      resilience.Backoff{Base: 0.02, Cap: 0.2, Jitter: 0.2},
				Breaker:      &resilience.BreakerOptions{FailureThreshold: 0.5, MinSamples: 5},
				RateLimit:    &resilience.RateLimitOptions{RPS: 40},
				CancelHedges: true,
				HedgeBudget:  25,
			}
		}},
	}},
	{"scale", []matrixOpt{
		{"off", func(o *clusterdes.Options) {}},
		{"script", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{
				Policy: scriptedScale(func(iv int) int {
					switch {
					case iv < 8:
						return 6
					case iv < 22:
						return 2
					}
					return 6
				}),
				MinNodes:           2,
				InitialNodes:       6,
				CooldownIntervals:  2,
				DownAfterIntervals: 1,
				WarmupIntervals:    2,
			}
		}},
		{"target", func(o *clusterdes.Options) {
			o.Autoscale = &clusterdes.AutoscaleOptions{
				Policy:          autoscale.TargetUtilization{},
				MinNodes:        2,
				WarmupIntervals: 2,
				WarmupFactor:    0.5,
			}
		}},
	}},
	{"learn", []matrixOpt{
		{"off", func(o *clusterdes.Options) {}},
		{"fed", func(o *clusterdes.Options) {
			params := learnParams()
			o.Learn = &clusterdes.LearnOptions{
				Params:     &params,
				Federation: &cluster.FederationOptions{SyncEvery: 5},
			}
		}},
	}},
	{"seed", []matrixOpt{
		{"3", func(o *clusterdes.Options) { o.Seed = 3 }},
		{"17", func(o *clusterdes.Options) { o.Seed = 17 }},
	}},
}

// matrixEntry is one cell of the product: its name and the settings
// to apply, one per axis.
type matrixEntry struct {
	name  string
	apply []func(*clusterdes.Options)
}

// matrixEntries expands desMatrix in axis order, the last axis fastest.
func matrixEntries() []matrixEntry {
	entries := []matrixEntry{{}}
	for _, ax := range desMatrix {
		var next []matrixEntry
		for _, e := range entries {
			for _, v := range ax.opts {
				name := ax.name + "=" + v.name
				if e.name != "" {
					name = e.name + "/" + name
				}
				next = append(next, matrixEntry{name, append(slices.Clip(e.apply), v.apply)})
			}
		}
		entries = next
	}
	return entries
}

// TestDESMatrixGolden pins the SHA-256 of every matrix entry's
// FingerprintDES against testdata/des_matrix.golden. After an
// intentional model change, regenerate with:
//
//	go test ./internal/fleettest -run TestDESMatrixGolden -update
func TestDESMatrixGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The fingerprints pin byte-exact floats; Go permits FMA fusion
		// on other architectures, which can shift accumulated sums by a
		// rounded digit. CI (amd64) enforces the golden.
		t.Skipf("golden pinned to amd64 float semantics, running on %s", runtime.GOARCH)
	}
	var buf bytes.Buffer
	for _, e := range matrixEntries() {
		nodes, err := clusterdes.Uniform(6, platform.JunoR1(), workload.WebSearch())
		if err != nil {
			t.Fatal(err)
		}
		opts := clusterdes.Options{
			Nodes:   nodes,
			Pattern: loadgen.Spike{Base: 0.5, Peak: 1.2, EverySecs: 12, SpikeSecs: 5},
			Workers: 2,
		}
		for _, apply := range e.apply {
			apply(&opts)
		}
		fmt.Fprintf(&buf, "%x %s\n", sha256.Sum256(fleettest.FingerprintDES(t, opts, 40)), e.name)
	}
	golden := filepath.Join("testdata", "des_matrix.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file %s regenerated", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
	if len(wantLines) != len(gotLines) {
		t.Fatalf("matrix has %d lines, golden %d (rerun with -update if intentional)", len(gotLines), len(wantLines))
	}
	drift := 0
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			drift++
			t.Errorf("drifted: %s (golden %s)", gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%d of %d matrix entries drifted from %s (rerun with -update if intentional)", drift, len(gotLines)-1, golden)
}
