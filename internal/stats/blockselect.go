package stats

import (
	"math"
	"math/bits"
	"slices"
)

// blockGather is the largest bucket BlockPercentiles gathers into its
// scratch and finishes by selection; tests lower it so small inputs
// reach every radix level.
var blockGather = 4096

// BlockPercentiles writes the ps[k]-quantile of the concatenation of
// blocks to out[k] for every k, bit for bit what SelectPercentiles
// returns on that concatenation, without writing to any block; out
// must be at least as long as ps. It has SelectPercentile's input
// contract: no NaN, and a zero result may differ only in its sign.
//
// It finds the order statistics it needs by a radix select over the
// order-preserving key SortFloats sorts by: one pass for the smallest
// and largest key, whose shared leading bits every key shares; one
// histogram of the next 8 to 16 bits, which places each order
// statistic in a bucket; one pass that gathers those buckets, and a
// selection inside each. A bucket over 4096 elements (heavy ties)
// narrows by the next bits instead. Its scratch is at most a 64 Ki
// counter histogram (256 KiB) and the gathered buckets, at most 4096
// elements for each order statistic (two per percentile), so it does
// not grow with the input, and none of it outlives the call.
func BlockPercentiles(blocks [][]float64, ps, out []float64) error {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	if n == 0 {
		return ErrEmpty
	}
	for _, p := range ps {
		if !(p >= 0 && p <= 1) { // NaN included
			return errPercentileRange
		}
	}
	if uint64(n) > math.MaxUint32 {
		// The histogram's counters hold at most 1<<32-1.
		x := make([]float64, 0, n)
		for _, b := range blocks {
			x = append(x, b...)
		}
		return SelectPercentiles(x, ps, out)
	}
	// The ranks SelectPercentiles reads: i and i+1 for each p, or the
	// last alone, sorted and deduplicated.
	var rankBuf [8]int
	ranks := rankBuf[:0]
	for _, p := range ps {
		i := int(math.Floor(p * float64(n-1)))
		if i+1 >= n {
			ranks = append(ranks, n-1)
		} else {
			ranks = append(ranks, i, i+1)
		}
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	var tBuf [8]rankTarget
	ts := tBuf[:0]
	for _, r := range ranks {
		ts = append(ts, rankTarget{rank: r})
	}

	lo, hi := ^uint64(0), uint64(0)
	for _, b := range blocks {
		for _, v := range b {
			k := orderKey(v)
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	if lo == hi {
		for k := range ts {
			ts[k].val = keyValue(lo)
		}
	} else {
		w := uint(min(max(bits.Len(uint(n))-4, 8), 16))
		s := blockSelect{blocks: blocks, w: w, hist: make([]uint32, 1<<w)}
		top := uint(64 - bits.LeadingZeros64(lo^hi))
		s.narrow(lo>>top, top, ts)
	}

	valOf := func(r int) float64 {
		k := 0
		for ranks[k] != r {
			k++
		}
		return ts[k].val
	}
	for j, p := range ps {
		pos := p * float64(n-1)
		i := int(math.Floor(pos))
		frac := pos - float64(i)
		if i+1 >= n {
			out[j] = valOf(n - 1)
			continue
		}
		a, b := valOf(i), valOf(i+1)
		out[j] = a*(1-frac) + b*frac
	}
	return nil
}

// rankTarget is one order statistic being narrowed: its rank among
// the elements that share the current key prefix, and its value once
// found.
type rankTarget struct {
	rank int
	val  float64
}

// blockSelect is one BlockPercentiles radix select: the blocks it only
// reads, the histogram digit width, and the histogram every level
// reuses.
type blockSelect struct {
	blocks [][]float64
	w      uint
	hist   []uint32
}

// rankBucket is a histogram bucket holding at least one target: its
// digit, its element count, and its targets, re-ranked within it.
type rankBucket struct {
	digit uint64
	count int
	ts    []rankTarget
}

// narrow finds the value of every target among the elements whose key
// shifted right by top equals prefix; ts are sorted by rank, and each
// rank is below the number of those elements. It histograms the next
// w key bits below top, gathers every target bucket of at most
// blockGather elements and selects inside it, and narrows each larger
// one by the next bits; a bucket whose key is fully resolved is its
// own value.
func (s *blockSelect) narrow(prefix uint64, top uint, ts []rankTarget) {
	w := min(s.w, top)
	shift := top - w
	mask := uint64(1)<<w - 1
	hist := s.hist[:1<<w]
	clear(hist)
	for _, b := range s.blocks {
		for _, v := range b {
			if k := orderKey(v); k>>top == prefix {
				hist[k>>shift&mask]++
			}
		}
	}
	var bucketBuf [8]rankBucket
	buckets := bucketBuf[:0]
	cum, t := 0, 0
	for d, c := range hist {
		end := cum + int(c)
		first := t
		for t < len(ts) && ts[t].rank < end {
			ts[t].rank -= cum
			t++
		}
		if t > first {
			buckets = append(buckets, rankBucket{digit: uint64(d), count: int(c), ts: ts[first:t]})
			if t == len(ts) {
				break
			}
		}
		cum = end
	}

	if shift == 0 {
		for _, bk := range buckets {
			for k := range bk.ts {
				bk.ts[k].val = keyValue(prefix<<w | bk.digit)
			}
		}
		return
	}

	// Gather the small buckets, reusing the histogram as a map from
	// digit to gather slot (slot+1; 0 = not gathered).
	var gathered [8]int
	slots, total := gathered[:0], 0
	clear(hist)
	for i, bk := range buckets {
		if bk.count <= blockGather {
			slots = append(slots, i)
			hist[bk.digit] = uint32(len(slots))
			total += bk.count
		}
	}
	if len(slots) > 0 {
		scratch := make([]float64, total)
		var posBuf [8]int
		pos := posBuf[:0]
		off := 0
		for _, i := range slots {
			pos = append(pos, off)
			off += buckets[i].count
		}
		for _, b := range s.blocks {
			for _, v := range b {
				if k := orderKey(v); k>>top == prefix {
					if slot := hist[k>>shift&mask]; slot != 0 {
						scratch[pos[slot-1]] = v
						pos[slot-1]++
					}
				}
			}
		}
		off = 0
		for _, i := range slots {
			bk := buckets[i]
			x := scratch[off : off+bk.count]
			off += bk.count
			budget := 3 * bits.Len(uint(len(x)))
			lo := 0
			for k, tg := range bk.ts {
				selectRank(x, lo, tg.rank, budget)
				bk.ts[k].val = x[tg.rank]
				lo = tg.rank + 1
			}
		}
	}
	for _, bk := range buckets {
		if bk.count > blockGather {
			s.narrow(prefix<<w|bk.digit, shift, bk.ts)
		}
	}
}
