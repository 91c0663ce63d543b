// Package stats provides the small statistical toolbox used across the
// simulator: normal/lognormal quantiles, mixture-distribution quantile
// solving (used for tail latency of heterogeneous server pools), sample
// percentiles, and streaming aggregates.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by sample statistics invoked on empty data.
var ErrEmpty = errors.New("stats: empty sample")

// NormalQuantile returns the p-quantile of the standard normal
// distribution, p in (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires 0 < p < 1")
	}
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// LogNormal is a lognormal distribution parameterised by the mean and
// sigma of the underlying normal.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// LogNormalFromMeanCV builds a lognormal with the given mean and
// coefficient of variation (stddev/mean). cv <= 0 yields a (nearly)
// deterministic distribution.
func LogNormalFromMeanCV(mean, cv float64) LogNormal {
	if mean <= 0 {
		panic("stats: lognormal mean must be positive")
	}
	if cv <= 0 {
		return LogNormal{Mu: math.Log(mean), Sigma: 0}
	}
	sigma2 := math.Log(1 + cv*cv)
	return LogNormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}
}

// Mean returns the distribution mean.
func (d LogNormal) Mean() float64 {
	return math.Exp(d.Mu + d.Sigma*d.Sigma/2)
}

// CDF returns P(X <= x).
func (d LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if d.Sigma == 0 {
		if math.Log(x) >= d.Mu {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-d.Mu)/(d.Sigma*math.Sqrt2))
}

// Quantile returns the p-quantile, p in (0,1).
func (d LogNormal) Quantile(p float64) float64 {
	if d.Sigma == 0 {
		return math.Exp(d.Mu)
	}
	return math.Exp(d.Mu + d.Sigma*NormalQuantile(p))
}

// WeightedDist is a component of a mixture distribution.
type WeightedDist struct {
	Weight float64
	Dist   LogNormal
}

// MixtureQuantile returns the p-quantile of a weighted lognormal mixture
// by bisection on the mixture CDF. Weights are normalised internally.
// It is used to compute the service-time quantile when requests are
// served by a mix of big and small cores at different speeds.
func MixtureQuantile(parts []WeightedDist, p float64) float64 {
	if len(parts) == 0 {
		panic("stats: empty mixture")
	}
	if p <= 0 || p >= 1 {
		panic("stats: MixtureQuantile requires 0 < p < 1")
	}
	var wsum float64
	for _, c := range parts {
		if c.Weight < 0 {
			panic("stats: negative mixture weight")
		}
		wsum += c.Weight
	}
	if wsum == 0 {
		panic("stats: zero-weight mixture")
	}
	if len(parts) == 1 {
		return parts[0].Dist.Quantile(p)
	}
	cdf := func(x float64) float64 {
		var s float64
		for _, c := range parts {
			s += c.Weight * c.Dist.CDF(x)
		}
		return s / wsum
	}
	// Bracket the quantile with the component quantiles.
	lo, hi := math.Inf(1), 0.0
	for _, c := range parts {
		if c.Weight == 0 {
			continue
		}
		q := c.Dist.Quantile(p)
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	if lo == hi {
		return lo
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*math.Max(1, hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// WeightedGroup is a run of N identical mixture components. It is the
// group form of WeightedDist: a heterogeneous server pool only ever has
// a handful of distinct speeds, so representing the mixture as (weight,
// count, dist) groups avoids expanding one component per server.
type WeightedGroup struct {
	Weight float64
	N      int
	Dist   LogNormal
}

// GroupedMixtureQuantile returns the p-quantile of a weighted lognormal
// mixture given in group form. It is bit-identical to MixtureQuantile
// over the expanded per-component list: every sum a group contributes
// (weight normalisation, mixture CDF) is accumulated by adding the
// per-component term N times in component order, so the floating-point
// rounding matches the expanded evaluation exactly while the expensive
// per-component work (the lognormal CDF) is done once per group.
func GroupedMixtureQuantile(groups []WeightedGroup, p float64) float64 {
	total := 0
	for _, g := range groups {
		if g.Weight < 0 {
			panic("stats: negative mixture weight")
		}
		if g.N < 0 {
			panic("stats: negative mixture group count")
		}
		total += g.N
	}
	if total == 0 {
		panic("stats: empty mixture")
	}
	if p <= 0 || p >= 1 {
		panic("stats: GroupedMixtureQuantile requires 0 < p < 1")
	}
	var wsum float64
	for _, g := range groups {
		for i := 0; i < g.N; i++ {
			wsum += g.Weight
		}
	}
	if wsum == 0 {
		panic("stats: zero-weight mixture")
	}
	if total == 1 {
		for _, g := range groups {
			if g.N > 0 {
				return g.Dist.Quantile(p)
			}
		}
	}
	cdf := func(x float64) float64 {
		var s float64
		for _, g := range groups {
			if g.N == 0 {
				continue
			}
			t := g.Weight * g.Dist.CDF(x)
			for i := 0; i < g.N; i++ {
				s += t
			}
		}
		return s / wsum
	}
	// Bracket the quantile with the component quantiles.
	lo, hi := math.Inf(1), 0.0
	for _, g := range groups {
		if g.Weight == 0 || g.N == 0 {
			continue
		}
		q := g.Dist.Quantile(p)
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	if lo == hi {
		return lo
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*math.Max(1, hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// Percentile returns the p-quantile (0<=p<=1) of the sample using linear
// interpolation between closest ranks. The input slice is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, errPercentileRange
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return PercentileSorted(s, p)
}

var errPercentileRange = errors.New("stats: percentile p out of [0,1]")

// PercentileSorted returns the p-quantile of an ascending-sorted sample
// with the same closest-rank interpolation as Percentile, without
// copying or sorting. Callers reading a few percentiles from an
// unsorted sample should use SelectPercentiles, which returns the same
// values without the sort.
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, errPercentileRange
	}
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := p * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1], nil
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// GeoMean returns the geometric mean of strictly positive xs.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geomean requires positive values")
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Aggregate accumulates count/mean/min/max/variance online (Welford).
type Aggregate struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a value into the aggregate.
func (a *Aggregate) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		a.min = math.Min(a.min, x)
		a.max = math.Max(a.max, x)
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of accumulated values.
func (a *Aggregate) Count() int { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Aggregate) Mean() float64 { return a.mean }

// Min returns the smallest value seen (0 when empty).
func (a *Aggregate) Min() float64 { return a.min }

// Max returns the largest value seen (0 when empty).
func (a *Aggregate) Max() float64 { return a.max }

// Variance returns the sample variance (0 for fewer than two values).
func (a *Aggregate) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Aggregate) StdDev() float64 { return math.Sqrt(a.Variance()) }
