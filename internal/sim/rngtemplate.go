package sim

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
// Streams are not cached: every request expands its seed. Each of the
// five end-to-end workloads runs every repetition in a fresh process
// and seeds every stream differently (4 to 2,048 streams a build), so a
// cache of expansions keyed by seed never hits there, while storing a
// copy of each of the first 512 expansions costs about 3 ms of building
// a 512-node fleet on a 2-vCPU Xeon VM. Over the whole root benchmark
// suite, where seeds do repeat, such a cache saves about 23 ms of 24 s.

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

// newFibSource returns a freshly seeded generator.
func newFibSource(seed int64) *fibSource {
	s := &fibSource{}
	s.seed(seed)
	return s
}
