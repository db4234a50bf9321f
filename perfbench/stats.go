package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may be reported at: the
// usual service-level percentiles up to p99. Above p99 the serve
// workload's round trips land among the few that meet a garbage
// collector pause, and p99.9 spread by 30% from seed to seed on a 2-core
// box, while p99 held within 3%.
var tailLadder = []float64{50, 90, 95, 99}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// rank is the 0-based index of the nearest-rank p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The tolerance keeps binary rounding of p·n/100 from moving an
	// exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(r, 0), n-1)
}

// tail is the highest ladder percentile that has at least minBeyond
// samples strictly beyond its rank, with the counts that justify it.
type tail struct {
	Pct    float64 `json:"pct"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// tailOf applies the tail rule to samples (which it sorts). When even
// the median lacks minBeyond samples beyond it, as in runs far shorter
// than the benchmark's, ok is false and the tail is the maximum.
func tailOf(samples []float64) (t tail, ok bool) {
	sort.Float64s(samples)
	n := len(samples)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		beyond := n - 1 - rank(n, p)
		if beyond >= minBeyond {
			return tail{Pct: p, Value: samples[rank(n, p)], N: n, Beyond: beyond}, true
		}
	}
	return tail{Pct: 100, Value: percentile(samples, 100), N: n}, false
}

// median of samples (sorts them).
func median(samples []float64) float64 {
	sort.Float64s(samples)
	return percentile(samples, 50)
}
