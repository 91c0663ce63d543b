package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

var fibSeeds = []int64{
	0, 1, -1, 42, 89482311, 1<<31 - 1, 1 << 31, -(1 << 40),
	math.MaxInt64, math.MinInt64, 123456789, -987654321,
}

// Schrage constants of the seed-expansion LCG: rngSeedA·rngSeedQ +
// rngSeedR = 2³¹−1, and rngSeedR < rngSeedQ.
const (
	rngSeedQ = 44488
	rngSeedR = 3399
)

// seedrand is one step of the seed-expansion LCG, x ← 48271·x mod
// (2³¹−1), in Schrage's overflow-free form, as math/rand computes it.
func seedrand(x int32) int32 {
	hi := x / rngSeedQ
	lo := x % rngSeedQ
	x = rngSeedA*lo - rngSeedR*hi
	if x < 0 {
		x += rngInt32Max
	}
	return x
}

// refExpand is math/rand's seed expansion: the serial chain of Schrage
// steps, 20 warm-up steps and then three per state word. It is the
// reference the jump-ahead expansion is pinned to.
func refExpand(seed int64) [rngLen]int64 {
	seed = seed % rngInt32Max
	if seed < 0 {
		seed += rngInt32Max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	var vec [rngLen]int64
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := uint64(x) << 40
			x = seedrand(x)
			u ^= uint64(x) << 20
			x = seedrand(x)
			u ^= uint64(x)
			u ^= uint64(rngCooked[i])
			vec[i] = int64(u)
		}
	}
	return vec
}

// TestSeedExpansionMatchesReference pins the jump-ahead expansion to
// the serial Schrage chain word for word, over the edge seeds (0, the
// modulus and its multiples, which map to 89482311, 2³¹−2, negative
// seeds and the int64 extremes) and 10,000 seeds from a fixed stream.
func TestSeedExpansionMatchesReference(t *testing.T) {
	seeds := append([]int64{
		3 * (1<<31 - 1), -(1<<31 - 1), 1<<31 - 2, -(1<<31 - 2), 2, -2,
		-(1 << 31), 1<<62 + 12345, -(1<<62 + 12345),
	}, fibSeeds...)
	gen := rand.New(rand.NewSource(20170204))
	for i := 0; i < 10000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	var s fibSource
	for _, seed := range seeds {
		s.seed(seed)
		if s.tap != 0 || s.feed != rngLen-rngTap {
			t.Fatalf("seed %d: tap %d feed %d", seed, s.tap, s.feed)
		}
		want := refExpand(seed)
		for i := range want {
			if s.vec[i] != want[i] {
				t.Fatalf("seed %d word %d: %d != reference %d", seed, i, s.vec[i], want[i])
			}
		}
	}
	var zero, mod fibSource
	zero.seed(89482311)
	mod.seed(5 * (1<<31 - 1))
	if zero.vec != mod.vec {
		t.Fatal("a multiple of 2^31-1 should expand as seed 89482311")
	}
}

// TestNewRNGConcurrentAcrossCap has 8 goroutines build streams for the
// same 1,024 seeds, each from its own starting offset, so seeds are
// expanded from all eight at once. Every stream must match
// rand.NewSource draw by draw over its first rngLen−rngTap draws, which
// between them read every one of the 607 state words.
func TestNewRNGConcurrentAcrossCap(t *testing.T) {
	const nSeeds, workers, draws = 1024, 8, rngLen - rngTap
	seeds := make([]int64, nSeeds)
	want := make([][draws]uint64, nSeeds)
	gen := rand.New(rand.NewSource(7))
	for i := range seeds {
		seeds[i] = int64(gen.Uint64())
		ref := rand.NewSource(seeds[i]).(rand.Source64)
		for d := range want[i] {
			want[i][d] = ref.Uint64()
		}
	}
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < nSeeds; k++ {
				i := (k + w*nSeeds/workers) % nSeeds
				got := NewRNG(seeds[i])
				for d, v := range want[i] {
					if g := got.Uint64(); g != v {
						errs <- fmt.Sprintf("worker %d seed %d draw %d: %d != stdlib %d", w, seeds[i], d, g, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFibSourceMatchesStdlib pins the jump-ahead-seeded generator to
// math/rand draw by draw: raw Int63/Uint64 words and the derived
// distributions the simulator consumes (Float64, NormFloat64,
// ExpFloat64, Intn). Any divergence — including a future Go release
// changing rand.NewSource's frozen stream — fails here before it can
// silently change simulation results.
func TestFibSourceMatchesStdlib(t *testing.T) {
	for _, seed := range fibSeeds {
		ref := rand.New(rand.NewSource(seed))
		got := NewRNG(seed)
		for i := 0; i < 500; i++ {
			if r, g := ref.Int63(), got.Int63(); r != g {
				t.Fatalf("seed %d draw %d: Int63 %d != stdlib %d", seed, i, g, r)
			}
		}
		for i := 0; i < 500; i++ {
			if r, g := ref.Uint64(), got.Uint64(); r != g {
				t.Fatalf("seed %d draw %d: Uint64 %d != stdlib %d", seed, i, g, r)
			}
		}
		for i := 0; i < 500; i++ {
			if r, g := ref.Float64(), got.Float64(); r != g {
				t.Fatalf("seed %d draw %d: Float64 %v != stdlib %v", seed, i, g, r)
			}
			if r, g := ref.NormFloat64(), got.NormFloat64(); r != g {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != stdlib %v", seed, i, g, r)
			}
			if r, g := ref.ExpFloat64(), got.ExpFloat64(); r != g {
				t.Fatalf("seed %d draw %d: ExpFloat64 %v != stdlib %v", seed, i, g, r)
			}
			if r, g := ref.Intn(7919), got.Intn(7919); r != g {
				t.Fatalf("seed %d draw %d: Intn %d != stdlib %d", seed, i, g, r)
			}
		}
	}
}

// TestFibSourceIsolation checks that two streams of one seed are
// independent generators: draining one must not perturb the other, and
// a reseeded stream restarts from its first draw.
func TestFibSourceIsolation(t *testing.T) {
	const seed = 77
	a := NewRNG(seed)
	var first [32]int64
	for i := range first {
		first[i] = a.Int63()
	}
	b := NewRNG(seed)
	for i := range first {
		if got := b.Int63(); got != first[i] {
			t.Fatalf("second stream draw %d: %d != first stream's %d", i, got, first[i])
		}
	}
	b.Seed(seed)
	for i := range first {
		if got := b.Int63(); got != first[i] {
			t.Fatalf("reseeded draw %d: %d != original %d", i, got, first[i])
		}
	}
}
