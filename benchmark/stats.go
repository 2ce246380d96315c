package main

import (
	"math"
	"sort"
)

// median returns the middle value of v (mean of the middle two for an
// even count), or 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	return percentile(v, 50)
}

// percentile returns the p-th percentile (0 < p <= 100) of v by linear
// interpolation between closest ranks, or 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailCandidates are the percentiles a timing may be quoted at, highest
// first, each with the share of samples beyond it in parts per thousand.
var tailCandidates = []struct {
	pct    float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercentile picks the highest percentile that still has at least ten
// of n samples beyond it, the rule the choosing-metrics guide sets for
// quoting a tail. It returns 50 when even p75 has fewer than ten samples
// beyond it: such a run supports a median and nothing higher.
func tailPercentile(n int) float64 {
	for _, c := range tailCandidates {
		if n*c.beyond >= 10*1000 {
			return c.pct
		}
	}
	return 50
}

// spread is the interquartile range of v as a share of its median, with
// the quartiles Python's statistics.quantiles(v, n=4) returns (the
// "exclusive" method), which is what the driver computes. It returns 0
// for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
