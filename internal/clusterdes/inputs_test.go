package clusterdes_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/workload"
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

func (s shareSplitter) Split(ctx cluster.SplitContext) []float64 {
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

// TestRunRejectsBadBoundaryInputs checks the DES routing refresh
// rejects non-finite or negative loads and shares, finite shares with
// an infinite total, and a share count that does not match the active
// set, with an error naming the input that latches — at the default
// single domain and at two. Without the check an infinite load put
// every arrival at t = 0 and a NaN one (a NaN trace sample included)
// left the arrival clock NaN, so Run never reached a boundary, and an
// infinite share total thinned λ to NaN, so the run silently offered
// nothing: each case runs under a watchdog. A load above 1
// is legal overload.
func TestRunRejectsBadBoundaryInputs(t *testing.T) {
	nan := func() loadgen.Pattern {
		tr, err := loadgen.NewTrace(1, []float64{0.5, 0.5, 0.5, 0.5, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		tr.Samples[2] = math.NaN() // what NewTrace used to let through
		return tr
	}()
	cases := []struct {
		name     string
		pattern  loadgen.Pattern
		splitter cluster.Splitter
		want     string
	}{
		{"load-nan", fixedLoad(math.NaN()), nil, "load NaN"},
		{"load-inf", fixedLoad(math.Inf(1)), nil, "load +Inf"},
		{"load-negative", fixedLoad(-0.5), nil, "load -0.5"},
		{"trace-nan", nan, nil, "load NaN at t=1"},
		{"share-nan", loadgen.Constant{Frac: 0.5}, shareSplitter{first: math.NaN()}, "share NaN for node 0"},
		{"share-inf", loadgen.Constant{Frac: 0.5}, shareSplitter{first: math.Inf(1)}, "share +Inf for node 0"},
		{"share-negative", loadgen.Constant{Frac: 0.5}, shareSplitter{first: -1}, "share -1 for node 0"},
		{"share-count", loadgen.Constant{Frac: 0.5}, shareSplitter{first: 1, short: true}, "returned 3 shares for 4 active nodes"},
		{"share-total-inf", loadgen.Constant{Frac: 0.5}, shareSplitter{first: math.MaxFloat64, all: true}, `splitter "share" returned shares summing to +Inf`},
		{"overload", fixedLoad(1.3), nil, ""},
	}
	for _, tc := range cases {
		for _, domains := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/domains=%d", tc.name, domains), func(t *testing.T) {
				t.Parallel()
				nodes, err := clusterdes.Uniform(4, platform.JunoR1(), workload.WebSearch())
				if err != nil {
					t.Fatal(err)
				}
				fl, err := clusterdes.New(clusterdes.Options{
					Nodes:    nodes,
					Pattern:  tc.pattern,
					Splitter: tc.splitter,
					Domains:  domains,
					Seed:     1,
				})
				if err != nil {
					t.Fatal(err)
				}
				type outcome struct {
					res clusterdes.Result
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := fl.Run(5)
					done <- outcome{res, err}
				}()
				var out outcome
				select {
				case out = <-done:
				case <-time.After(20 * time.Second):
					t.Fatal("Run did not return within 20 s")
				}
				if tc.want == "" {
					if out.err != nil || out.res.Stats.Requests == 0 {
						t.Fatalf("legal overload failed: err %v, %d requests", out.err, out.res.Stats.Requests)
					}
					return
				}
				if out.err == nil || !strings.Contains(out.err.Error(), tc.want) {
					t.Fatalf("error %v, want one containing %q", out.err, tc.want)
				}
				if _, again := fl.Run(5); again != out.err {
					t.Fatalf("error did not latch: %v after %v", again, out.err)
				}
			})
		}
	}
}
