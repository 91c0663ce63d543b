// Package sim provides deterministic simulation primitives shared by the
// rest of the repository: seeded random-number streams and an interval
// clock. All stochastic behaviour in the simulator flows through an
// explicitly seeded *rand.Rand so that every experiment is reproducible.
package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// NewRNG returns a deterministic random source for the given seed. The
// stream is bit-identical to rand.New(rand.NewSource(seed)); the seed is
// expanded by jump-ahead (see rngtemplate.go).
func NewRNG(seed int64) *rand.Rand {
	return rand.New(newFibSource(seed))
}

// SubSeed derives a stable child seed from a parent seed and a label.
// It lets independent components (workload noise, policy exploration,
// load jitter) consume independent streams while the whole simulation
// remains a pure function of one top-level seed.
func SubSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// SubRNG returns a deterministic stream derived from seed and label.
func SubRNG(seed int64, label string) *rand.Rand {
	return NewRNG(SubSeed(seed, label))
}

// LogNormal draws a lognormal sample with the given parameters of the
// underlying normal (mu, sigma). sigma <= 0 returns exp(mu).
func LogNormal(r *rand.Rand, mu, sigma float64) float64 {
	if sigma <= 0 {
		return math.Exp(mu)
	}
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Jitter returns x multiplied by a lognormal factor with median 1 and the
// given sigma; sigma == 0 or a nil source returns x unchanged. Used for
// measurement noise on latency and power readings.
func Jitter(r *rand.Rand, x, sigma float64) float64 {
	if sigma <= 0 || r == nil {
		return x
	}
	return x * LogNormal(r, 0, sigma)
}
