package sim

import (
	"sync"
)

// fibSource replicates math/rand's additive lagged-Fibonacci generator
// exactly: the same seed expansion (see rngcooked.go), the same
// Int63/Uint64 recurrence, and it implements rand.Source64 so rand.Rand
// drives it through the same code paths. Every stream is bit-identical
// to rand.New(rand.NewSource(seed)).
//
// rand.NewSource expands a seed into the 607-word state with a serial
// chain of 1,841 steps of the Lehmer LCG x ← 48271·x mod (2³¹−1): 20
// warm-up steps, then three per word. fibSource jumps ahead instead. It
// multiplies the seed once by 48271²⁰, then computes each word's three
// values from the previous word's last one by the constant multipliers
// 48271, 48271² and 48271³, so the dependent chain is one multiply per
// word.
//
// sim also keeps a template cache. The first request for each of the
// first rngTemplateCap seeds stores a copy of its expansion, and a later
// request for that seed clones it, at about half the cost of an
// expansion. Once the cache is full, a new seed's stream is returned as
// it was expanded, with no copy.
//
// Measured on a 2-vCPU Xeon VM, the root benchmark suite, run as
//
//	go test -bench . -benchtime 3x -count 3 .
//
// builds 33,732 streams, and 14,056 of them hit the cache, which saves
// about 23 ms of the suite's 24 s.
// The five end-to-end workloads run each repetition in a fresh process
// and seed every stream differently, so they never hit; there the
// stored copies add about 3 ms to building a 512-node fleet (ROADMAP
// item 5).

const (
	rngLen      = 607
	rngTap      = 273
	rngMask     = 1<<63 - 1
	rngInt32Max = 1<<31 - 1

	// Multipliers of the seed-expansion LCG: one, two and three steps
	// (a word's three values) and the 20 warm-up steps. Each is a
	// product of two residues reduced mod 2³¹−1, so no intermediate
	// passes 62 bits; a literal 48271²⁰ is about 2³¹¹, past the 256
	// bits of untyped-constant precision the spec guarantees.
	rngSeedA   = 48271
	rngSeedA2  = rngSeedA * rngSeedA % rngInt32Max
	rngSeedA3  = rngSeedA2 * rngSeedA % rngInt32Max
	rngSeedA5  = rngSeedA3 * rngSeedA2 % rngInt32Max
	rngSeedA10 = rngSeedA5 * rngSeedA5 % rngInt32Max
	rngSeedA20 = rngSeedA10 * rngSeedA10 % rngInt32Max
)

// mulMod returns x·k mod (2³¹−1) for x, k < 2³¹−1. Since 2³¹ ≡ 1, the
// high bits of the 62-bit product fold onto the low 31 (a Mersenne
// reduction).
func mulMod(x, k uint64) uint64 {
	p := x * k
	r := p&rngInt32Max + p>>31
	if r >= rngInt32Max {
		r -= rngInt32Max
	}
	return r
}

// fibSource is the additive lagged-Fibonacci generator F(607, 273, +).
type fibSource struct {
	tap, feed int
	vec       [rngLen]int64
}

// seed expands seed into the generator state.
func (s *fibSource) seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed = seed % rngInt32Max
	if seed < 0 {
		seed += rngInt32Max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := mulMod(uint64(seed), rngSeedA20)
	for i := range s.vec {
		hi, mid := mulMod(x, rngSeedA), mulMod(x, rngSeedA2)
		x = mulMod(x, rngSeedA3)
		s.vec[i] = int64(hi<<40 ^ mid<<20 ^ x ^ uint64(rngCooked[i]))
	}
}

// Uint64 implements rand.Source64.
func (s *fibSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *fibSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Seed implements rand.Source.
func (s *fibSource) Seed(seed int64) { s.seed(seed) }

// rngTemplateCap bounds the template cache (~5 KB per entry). A process
// only ever builds streams for a bounded set of (seed, label) pairs;
// past the cap, requests for new seeds simply pay the expansion.
const rngTemplateCap = 512

var (
	rngTemplateMu sync.Mutex
	rngTemplates  = make(map[int64]*fibSource)
)

// newFibSource returns a freshly seeded generator, cloning a cached
// template when one exists. A new seed is expanded and, while the cache
// has room, a copy is stored as its template; past the cap the expanded
// stream is returned as it is. Templates are immutable once published.
func newFibSource(seed int64) *fibSource {
	rngTemplateMu.Lock()
	defer rngTemplateMu.Unlock()
	if t, ok := rngTemplates[seed]; ok {
		clone := *t
		return &clone
	}
	s := &fibSource{}
	s.seed(seed)
	if len(rngTemplates) < rngTemplateCap {
		t := *s
		rngTemplates[seed] = &t
	}
	return s
}
