package cluster

import (
	"math"
	"strings"
	"testing"
)

// fixedLoad is a pattern returning one load fraction at every time,
// with no range clamping.
type fixedLoad float64

func (p fixedLoad) LoadAt(float64) float64 { return float64(p) }
func (fixedLoad) Duration() float64        { return 0 }

// shareSplitter returns first for node 0 and 1 for every other node,
// or first for every node when all is set; short drops the last share.
type shareSplitter struct {
	first float64
	short bool
	all   bool
}

func (shareSplitter) Name() string { return "share" }

func (s shareSplitter) Split(ctx SplitContext) []float64 {
	shares := make([]float64, len(ctx.Nodes))
	for i := range shares {
		shares[i] = 1
		if s.all {
			shares[i] = s.first
		}
	}
	shares[0] = s.first
	if s.short {
		shares = shares[:len(shares)-1]
	}
	return shares
}

// boundaryInputCases are the boundary inputs SplitChecked must reject
// or accept; want is a substring of the error, empty for a legal input.
var boundaryInputCases = []struct {
	name     string
	load     float64
	splitter Splitter
	want     string
}{
	{"load-nan", math.NaN(), WeightedByCapacity{}, "load NaN"},
	{"load-inf", math.Inf(1), WeightedByCapacity{}, "load +Inf"},
	{"load-negative", -0.5, WeightedByCapacity{}, "load -0.5"},
	{"share-nan", 0.5, shareSplitter{first: math.NaN()}, "share NaN for node 0"},
	{"share-inf", 0.5, shareSplitter{first: math.Inf(1)}, "share +Inf for node 0"},
	{"share-negative", 0.5, shareSplitter{first: -1}, "share -1 for node 0"},
	{"share-count", 0.5, shareSplitter{first: 1, short: true}, "returned 3 shares for 4 active nodes"},
	{"share-total-inf", 0.5, shareSplitter{first: math.MaxFloat64, all: true}, `splitter "share" returned shares summing to +Inf`},
	{"overload", 1.3, WeightedByCapacity{}, ""},
}

// TestSplitCheckedRejectsBadInputs checks the one boundary-input check
// both fleets share: non-finite or negative loads and shares, finite
// shares with an infinite total, and a share count that does not match
// the active set, are errors naming the input; a load above 1 is legal
// overload.
func TestSplitCheckedRejectsBadInputs(t *testing.T) {
	nodes := make([]NodeState, 4)
	for i := range nodes {
		nodes[i] = NodeState{ID: i, CapacityRPS: 100, Active: true}
	}
	for _, tc := range boundaryInputCases {
		t.Run(tc.name, func(t *testing.T) {
			shares, err := SplitChecked(tc.splitter, tc.load, SplitContext{TotalRPS: tc.load * 400, Nodes: nodes})
			if tc.want == "" {
				if err != nil || len(shares) != len(nodes) {
					t.Fatalf("legal input rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestClusterStepRejectsBadInputs drives the same inputs through the
// interval-mode coordinator: the first Step fails naming the input, the
// error latches, and no interval is recorded, where a NaN load would
// otherwise run on and report NaN fleet energy.
func TestClusterStepRejectsBadInputs(t *testing.T) {
	for _, tc := range boundaryInputCases {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := New(Options{
				Nodes:    testFleet(t, 4, 1),
				Pattern:  fixedLoad(tc.load),
				Splitter: tc.splitter,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			fs, err := cl.Step()
			if tc.want == "" {
				if err != nil || math.IsNaN(fs.EnergyJ) {
					t.Fatalf("legal overload failed: err %v, energy %v", err, fs.EnergyJ)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if _, again := cl.Step(); again != err {
				t.Fatalf("error did not latch: %v after %v", again, err)
			}
			if cl.Fleet().Len() != 0 {
				t.Fatalf("failed fleet recorded %d intervals", cl.Fleet().Len())
			}
		})
	}
}
