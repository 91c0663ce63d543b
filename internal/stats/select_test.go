package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// selectPs are the percentiles the equivalence tests read: both ends,
// the median and the tails the DES reports.
var selectPs = []float64{0, 0.01, 0.5, 0.95, 0.99, 1}

// sameFloat compares bit for bit, treating any two NaNs as equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkSelect asserts SelectPercentile and SelectPercentiles agree bit
// for bit with the reference read — SortFloats on a copy, then
// PercentileSorted — on x, for every p in ps, with ps read one at a
// time, ascending together, and in reverse order together.
func checkSelect(t testing.TB, name string, x, ps []float64) {
	t.Helper()
	sorted := append([]float64(nil), x...)
	SortFloats(sorted)
	want := func(p float64) float64 {
		v, err := PercentileSorted(sorted, p)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, p := range ps {
		got, err := SelectPercentile(append([]float64(nil), x...), p)
		if err != nil {
			t.Fatal(err)
		}
		if w := want(p); !sameFloat(got, w) {
			t.Fatalf("%s n=%d: SelectPercentile(%v) = %v, sorted read %v", name, len(x), p, got, w)
		}
	}
	rev := make([]float64, len(ps))
	for k := range ps {
		rev[k] = ps[len(ps)-1-k]
	}
	for _, order := range [][]float64{ps, rev} {
		out := make([]float64, len(order))
		if err := SelectPercentiles(append([]float64(nil), x...), order, out); err != nil {
			t.Fatal(err)
		}
		for k, p := range order {
			if w := want(p); !sameFloat(out[k], w) {
				t.Fatalf("%s n=%d: SelectPercentiles(%v)[%d] (p=%v) = %v, sorted read %v",
					name, len(x), order, k, p, out[k], w)
			}
		}
	}
}

// TestSelectPercentileMatchesSort compares selection with the sorted
// read over sizes from 1 to 200k on random, heavily tied, constant,
// sorted, reversed and organ-pipe inputs.
func TestSelectPercentileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gens := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return rng.NormFloat64() }},
		{"lognormal", func(int, int) float64 { return math.Exp(rng.NormFloat64()) }},
		{"ties", func(int, int) float64 { return float64(rng.Intn(4)) }},
		{"constant", func(int, int) float64 { return 0.25 }},
		{"sorted", func(i, _ int) float64 { return float64(i) * 0.5 }},
		{"reversed", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-1-i)) }},
		{"sorted-ties", func(i, n int) float64 { return float64(i * 8 / n) }},
	}
	sizes := []int{1, 2, 3, 5, 15, 16, 17, 31, 32, 33, 100, 511, 512, 513, 1000, 4096, 65537, 200000}
	for _, g := range gens {
		for _, n := range sizes {
			if n > 5000 && testing.Short() {
				continue
			}
			x := make([]float64, n)
			for i := range x {
				x[i] = g.gen(i, n)
			}
			checkSelect(t, g.name, x, selectPs)
		}
	}
}

// TestSelectRankFallback spends the partition budget early, so the
// SortFloats fallback finishes the selection, and checks the result is
// still the order statistic.
func TestSelectRankFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 3000)
	for i := range x {
		x[i] = float64(rng.Intn(500))
	}
	want := append([]float64(nil), x...)
	SortFloats(want)
	for _, budget := range []int{0, 1, 2} {
		for _, k := range []int{0, 1, 1499, 2970, 2999} {
			y := append([]float64(nil), x...)
			selectRank(y, 0, k, budget)
			if y[k] != want[k] {
				t.Fatalf("budget %d: rank %d = %v, want %v", budget, k, y[k], want[k])
			}
			for i := range y {
				if (i < k && y[i] > y[k]) || (i > k && y[i] < y[k]) {
					t.Fatalf("budget %d: rank %d not partitioned at %d", budget, k, i)
				}
			}
		}
	}
}

func TestSelectPercentileErrors(t *testing.T) {
	if _, err := SelectPercentile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty sample: err = %v, want ErrEmpty", err)
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := SelectPercentile([]float64{1, 2}, p); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
	out := make([]float64, 2)
	if err := SelectPercentiles([]float64{1}, []float64{0.5, 2}, out); err == nil {
		t.Error("SelectPercentiles accepted p=2")
	}
}

// TestSelectPercentilesAllocs pins the no-allocation contract the DES
// boundary relies on.
func TestSelectPercentilesAllocs(t *testing.T) {
	x := make([]float64, 4096)
	rng := rand.New(rand.NewSource(1))
	ps := []float64{0.5, 0.9, 0.95, 0.99}
	out := make([]float64, len(ps))
	allocs := testing.AllocsPerRun(10, func() {
		for i := range x {
			x[i] = rng.ExpFloat64()
		}
		if err := SelectPercentiles(x, ps, out); err != nil {
			t.Fatal(err)
		}
		if _, err := SelectPercentile(x, 0.95); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("selection allocated %v times per run", allocs)
	}
}

// FuzzSelectPercentile checks selection against the sorted read on
// arbitrary inputs. Narrow inputs decode one byte per element into a
// small integer range, so ties dominate; wide inputs decode eight bytes
// per element into any non-NaN float, with -0 folded into +0 (the one
// pair selection and the radix sort may order differently).
func FuzzSelectPercentile(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 0.5, false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 0.99, false)
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@"), 0.5, true)
	f.Fuzz(func(t *testing.T, raw []byte, p float64, wide bool) {
		var x []float64
		if wide {
			for len(raw) >= 8 {
				var u uint64
				for i := 0; i < 8; i++ {
					u |= uint64(raw[i]) << (8 * i)
				}
				raw = raw[8:]
				v := math.Float64frombits(u)
				if math.IsNaN(v) {
					continue
				}
				if v == 0 {
					v = 0
				}
				x = append(x, v)
			}
		} else {
			for _, b := range raw {
				x = append(x, float64(int8(b)))
			}
		}
		if len(x) == 0 {
			return
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			p = 0.5
		}
		p = math.Abs(math.Mod(p, 1))
		checkSelect(t, "fuzz", x, []float64{p, 0.5, 0.99})
	})
}
