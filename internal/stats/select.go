package stats

import (
	"math"
	"math/bits"
)

// selectSmall is the window below which selection finishes with an
// insertion sort: partitioning a handful of elements costs more than
// ordering them.
const selectSmall = 16

// SelectPercentile returns the p-quantile of x exactly as
// PercentileSorted returns it on x sorted ascending, but finds the one
// or two order statistics it needs by selection instead of a full
// sort: expected O(n) time and no allocation. It reorders x. Like
// SortFloats it does not support NaN; -0 and +0 compare equal, so a
// zero result can differ from the sorted read only in its sign.
func SelectPercentile(x []float64, p float64) (float64, error) {
	ps := [1]float64{p}
	var out [1]float64
	err := SelectPercentiles(x, ps[:], out[:])
	return out[0], err
}

// SelectPercentiles writes the ps[k]-quantile of x to out[k] for every
// k, each exactly as PercentileSorted returns it on x sorted ascending;
// out must be at least as long as ps. With ps ascending, each order
// statistic is selected only among the elements the previous one left
// above it, so reading P50, P90, P95 and P99 costs little more than
// reading P50 alone. It reorders x and has SelectPercentile's input
// contract.
func SelectPercentiles(x, ps, out []float64) error {
	if len(x) == 0 {
		return ErrEmpty
	}
	for _, p := range ps {
		if !(p >= 0 && p <= 1) { // NaN included
			return errPercentileRange
		}
	}
	n := len(x)
	// A median-of-three partition shrinks the window by a constant
	// factor on any input but an adversarial one; a window still open
	// after three rounds per bit of its length has met such an input.
	budget := 3 * bits.Len(uint(n))
	// settled is the highest rank placed so far: x[settled] holds that
	// order statistic, nothing before it is larger and nothing after it
	// smaller.
	settled := -1
	rank := func(k int) float64 {
		if k != settled {
			lo := settled + 1
			if k < lo {
				lo = 0 // ps not ascending: select over the whole slice
			}
			selectRank(x, lo, k, budget)
			settled = k
		}
		return x[k]
	}
	for j, p := range ps {
		if n == 1 {
			out[j] = x[0]
			continue
		}
		pos := p * float64(n-1)
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		if i+1 >= n {
			out[j] = rank(n - 1)
			continue
		}
		a := rank(i)
		b := rank(i + 1)
		out[j] = a*(1-frac) + b*frac
	}
	return nil
}

// selectRank moves the rank-k order statistic of x to x[k], with
// nothing larger before it and nothing smaller after it. Every element
// of x[:lo] must already be no larger than any element of x[lo:], and
// lo <= k. Once budget partition rounds are spent, the remaining
// window is sorted with SortFloats.
func selectRank(x []float64, lo, k, budget int) {
	hi := len(x) - 1
	for hi-lo >= selectSmall {
		if k == lo {
			swapMin(x[lo : hi+1])
			return
		}
		if budget == 0 {
			SortFloats(x[lo : hi+1])
			return
		}
		budget--
		mid := int(uint(lo+hi) >> 1)
		if x[mid] < x[lo] {
			x[mid], x[lo] = x[lo], x[mid]
		}
		if x[hi] < x[lo] {
			x[hi], x[lo] = x[lo], x[hi]
		}
		if x[hi] < x[mid] {
			x[hi], x[mid] = x[mid], x[hi]
		}
		pivot := x[mid]
		// Hoare partition: x[lo] <= pivot <= x[hi] bound both scans on
		// the first pass and each swap bounds the next, and elements
		// equal to the pivot stop both scans, so heavy ties still split
		// the window evenly.
		i, j := lo, hi
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for pivot < x[j] {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// Now x[lo:j+1] <= pivot <= x[i:hi+1], and x[j+1:i] == pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	for a := lo + 1; a <= hi; a++ {
		v := x[a]
		b := a - 1
		for b >= lo && x[b] > v {
			x[b+1] = x[b]
			b--
		}
		x[b+1] = v
	}
}

// swapMin moves the smallest element of x to x[0].
func swapMin(x []float64) {
	m := 0
	for i := 1; i < len(x); i++ {
		if x[i] < x[m] {
			m = i
		}
	}
	x[0], x[m] = x[m], x[0]
}
