package stats

import (
	"math"
	"sort"
)

// radixSortMin is the slice length below which SortFloats falls back
// to the standard comparison sort: the radix passes' fixed cost (two
// key transforms plus up to eight counting passes) only amortises on
// larger inputs.
const radixSortMin = 512

// SortFloats sorts x ascending, exactly as sort.Float64s would for
// finite inputs, but in O(n) via an LSD radix sort on the order-
// preserving integer encoding of float64; on hundreds of thousands of
// samples it is several times faster than the comparison sort, at 16
// bytes of key scratch per element from 512 elements up. Callers that
// only read a few percentiles should use SelectPercentile, which needs
// neither the full order nor the scratch. Inputs must not contain NaN
// (sort.Float64s's NaN ordering is not reproduced); ±0 are ordered
// sign-first, which no comparison can observe.
func SortFloats(x []float64) {
	n := len(x)
	if n < 32 {
		// A branch-free-entry insertion sort beats the stdlib's generic
		// dispatch at these sizes.
		for i := 1; i < n; i++ {
			v := x[i]
			j := i - 1
			for j >= 0 && x[j] > v {
				x[j+1] = x[j]
				j--
			}
			x[j+1] = v
		}
		return
	}
	if n < radixSortMin {
		sort.Float64s(x)
		return
	}
	keys := make([]uint64, 2*n)
	a, b := keys[:n], keys[n:]
	for i, v := range x {
		a[i] = orderKey(v)
	}
	var count [256]int
	for shift := 0; shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, u := range a {
			count[(u>>shift)&0xff]++
		}
		if count[(a[0]>>shift)&0xff] == n {
			continue // all keys share this byte; the pass is a no-op
		}
		pos := 0
		for i := range count {
			c := count[i]
			count[i] = pos
			pos += c
		}
		for _, u := range a {
			byteVal := (u >> shift) & 0xff
			b[count[byteVal]] = u
			count[byteVal]++
		}
		a, b = b, a
	}
	for i, u := range a {
		x[i] = keyValue(u)
	}
}

// orderKey maps v to the uint64 whose unsigned order is v's order
// among floats (-0 just below +0): every bit of a negative flipped,
// the sign bit of a positive set.
func orderKey(v float64) uint64 {
	u := math.Float64bits(v)
	return u ^ (uint64(int64(u)>>63) | 1<<63)
}

// keyValue inverts orderKey.
func keyValue(k uint64) float64 {
	return math.Float64frombits(k ^ ((k>>63 - 1) | 1<<63))
}
