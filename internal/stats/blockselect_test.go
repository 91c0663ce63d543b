package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// blockPs are the percentiles the block tests read: selectPs plus the
// four the DES reports, so the ranks of neighbouring percentiles share
// buckets.
var blockPs = []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 1}

// withGather runs f with blockGather lowered to limit, so small inputs
// take the radix path and reach its deeper levels.
func withGather(limit int, f func()) {
	defer func(old int) { blockGather = old }(blockGather)
	blockGather = limit
	f()
}

// checkBlocks asserts BlockPercentiles returns, bit for bit, what
// SelectPercentiles returns on a copy of the blocks' concatenation,
// for ps and for ps reversed, and that it leaves every block as it
// was.
func checkBlocks(t testing.TB, name string, blocks [][]float64, ps []float64) {
	t.Helper()
	var flat []float64
	for _, b := range blocks {
		flat = append(flat, b...)
	}
	before := make([]uint64, len(flat))
	for i, v := range flat {
		before[i] = math.Float64bits(v)
	}
	rev := make([]float64, len(ps))
	for k := range ps {
		rev[k] = ps[len(ps)-1-k]
	}
	for _, order := range [][]float64{ps, rev} {
		want := make([]float64, len(order))
		if err := SelectPercentiles(append([]float64(nil), flat...), order, want); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(order))
		if err := BlockPercentiles(blocks, order, got); err != nil {
			t.Fatal(err)
		}
		for k, p := range order {
			if !sameFloat(got[k], want[k]) {
				t.Fatalf("%s n=%d in %d blocks, gather %d: BlockPercentiles p=%v = %v (%#x), selection %v (%#x)",
					name, len(flat), len(blocks), blockGather, p, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
			}
		}
		i := 0
		for _, b := range blocks {
			for _, v := range b {
				if math.Float64bits(v) != before[i] {
					t.Fatalf("%s n=%d: BlockPercentiles wrote element %d: %v, was %v", name, len(flat), i, v, math.Float64frombits(before[i]))
				}
				i++
			}
		}
	}
}

// splitBlocks cuts x into blocks of random lengths from 0 to maxLen,
// so empty blocks and blocks of one element occur.
func splitBlocks(rng *rand.Rand, x []float64, maxLen int) [][]float64 {
	var blocks [][]float64
	for len(x) > 0 || rng.Intn(4) == 0 {
		k := min(rng.Intn(maxLen+1), len(x))
		blocks = append(blocks, x[:k:k])
		x = x[k:]
	}
	return blocks
}

// TestBlockPercentilesMatchesSelect compares the block read with
// selection on the concatenation over generated block sets — random,
// log-normal, negative, two- and three-value ties, constant, sorted,
// clustered, and spans from 1e-300 to 1e300 — cut into blocks of
// random lengths, empty ones included. Each set runs at gather limits
// from 0 (radix to the last bit) to the real one, so every level and
// every gather runs.
func TestBlockPercentilesMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"random", func(int, int) float64 { return rng.NormFloat64() }},
		{"lognormal", func(int, int) float64 { return math.Exp(2 * rng.NormFloat64()) }},
		{"negative", func(int, int) float64 { return -rng.ExpFloat64() }},
		{"ties3", func(int, int) float64 { return float64(rng.Intn(3)) * 0.125 }},
		{"ties2-skewed", func(int, int) float64 {
			if rng.Intn(100) == 0 {
				return 2
			}
			return 1
		}},
		{"constant", func(int, int) float64 { return 0.25 }},
		{"sorted", func(i, _ int) float64 { return float64(i) * 1e-3 }},
		{"clustered", func(int, int) float64 { return 1 + float64(rng.Intn(1<<20))*0x1p-52 }},
		{"wide", func(int, int) float64 {
			return math.Copysign(math.Pow(10, rng.Float64()*600-300), rng.Float64()-0.3)
		}},
	}
	sizes := []int{1, 2, 3, 17, 100, 4096, 4097, 5000, 20000}
	for _, g := range gens {
		for _, n := range sizes {
			x := make([]float64, n)
			for i := range x {
				x[i] = g.gen(i, n)
			}
			blocks := splitBlocks(rng, x, 1+n/3)
			for _, limit := range []int{0, 1, 2, 16, 256, 4096} {
				withGather(limit, func() {
					checkBlocks(t, g.name, blocks, blockPs)
				})
			}
		}
	}
}

// TestBlockPercentilesZeros mixes -0 and +0, which compare equal, so
// a zero result may differ from selection only in its sign.
func TestBlockPercentilesZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 9000)
	for i := range x {
		switch rng.Intn(3) {
		case 0:
			x[i] = math.Copysign(0, -1)
		case 1:
			x[i] = 0
		default:
			x[i] = rng.NormFloat64()
		}
	}
	for _, limit := range []int{0, 16, 4096} {
		withGather(limit, func() {
			want := make([]float64, len(blockPs))
			if err := SelectPercentiles(append([]float64(nil), x...), blockPs, want); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, len(blockPs))
			if err := BlockPercentiles(splitBlocks(rng, x, 2000), blockPs, got); err != nil {
				t.Fatal(err)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("gather %d, p=%v: %v, selection %v", limit, blockPs[k], got[k], want[k])
				}
			}
		})
	}
}

// TestBlockPercentilesFullScale runs the real thresholds at the DES
// sample's full size, 64 blocks of 1<<16: a log-normal spread like the
// DES's sojourns, and a sample nine tenths of which is one value, whose
// bucket narrows down to the last bit.
func TestBlockPercentilesFullScale(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 1 << 22
	for _, name := range []string{"lognormal", "ties"} {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Exp(rng.NormFloat64()) * 1e-3
			if name == "ties" && rng.Intn(10) != 0 {
				x[i] = 0.5
			}
		}
		blocks := make([][]float64, 0, n>>16)
		for i := 0; i < n; i += 1 << 16 {
			blocks = append(blocks, x[i:i+1<<16])
		}
		checkBlocks(t, name, blocks, []float64{0.5, 0.9, 0.95, 0.99})
	}
}

// TestBlockPercentilesScratch pins that the read allocates the same
// fixed scratch whatever the input size: under the documented bound of
// a 256-KiB histogram plus one 4096-element bucket per order
// statistic.
func TestBlockPercentilesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := []float64{0.5, 0.9, 0.95, 0.99}
	out := make([]float64, len(ps))
	bound := uint64(256<<10 + 2*len(ps)*8*blockGather)
	for _, n := range []int{1000, 4097, 100_000, 1 << 21} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.ExpFloat64()
		}
		blocks := [][]float64{x[:n/3], x[n/3:]}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := BlockPercentiles(blocks, ps, out); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("n=%d: the read allocated %d bytes, want at most %d", n, got, bound)
		}
	}
}

func TestBlockPercentilesErrors(t *testing.T) {
	out := make([]float64, 2)
	for _, blocks := range [][][]float64{nil, {}, {nil, {}}} {
		if err := BlockPercentiles(blocks, []float64{0.5}, out); !errors.Is(err, ErrEmpty) {
			t.Errorf("blocks %v: err = %v, want ErrEmpty", blocks, err)
		}
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if err := BlockPercentiles([][]float64{{1, 2}}, []float64{0.5, p}, out); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
}

// FuzzBlockPercentiles checks the block read against selection on the
// concatenation. Values decode as in FuzzSelectPercentile (narrow: one
// byte each, so ties dominate; wide: any non-NaN float, -0 folded into
// +0), cuts gives the block lengths (0 to 31 each, the rest in a last
// block), and gather lowers the gather limit to 0–63 so short inputs
// reach every radix level.
func FuzzBlockPercentiles(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, []byte{2, 0, 5}, 0.5, false, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{7, 7}, 0.99, false, uint8(2))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\xf0?\x00\x00\x00\x00\x00\x00\x00@"), []byte{1}, 0.5, true, uint8(1))
	f.Fuzz(func(t *testing.T, raw, cuts []byte, p float64, wide bool, gather uint8) {
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
		var blocks [][]float64
		for _, c := range cuts {
			k := min(int(c%32), len(x))
			blocks = append(blocks, x[:k:k])
			x = x[k:]
		}
		blocks = append(blocks, x)
		if math.IsNaN(p) || math.IsInf(p, 0) {
			p = 0.5
		}
		p = math.Abs(math.Mod(p, 1))
		withGather(int(gather%64), func() {
			checkBlocks(t, fmt.Sprintf("fuzz wide=%v", wide), blocks, []float64{p, 0.5, 0.99})
		})
	})
}

// BenchmarkBlockPercentiles reads the DES's four percentiles from a
// full-size log-normal sample in 64 blocks, in place and by the copy
// and selection it replaces.
func BenchmarkBlockPercentiles(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 1<<22)
	for i := range x {
		x[i] = math.Exp(rng.NormFloat64()) * 1e-3
	}
	var blocks [][]float64
	for i := 0; i < len(x); i += 1 << 16 {
		blocks = append(blocks, x[i:i+1<<16])
	}
	ps := []float64{0.5, 0.9, 0.95, 0.99}
	out := make([]float64, len(ps))
	b.Run("in-place", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if err := BlockPercentiles(blocks, ps, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("copy-select", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			flat := make([]float64, 0, len(x))
			for _, blk := range blocks {
				flat = append(flat, blk...)
			}
			if err := SelectPercentiles(flat, ps, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
