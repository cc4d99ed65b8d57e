package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between the two closest ranks. xs need not be sorted; it is not
// modified. An empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentileLevels are the percentiles a timing may be reported at, in
// per-mille: p50, p90, p99, p99.9.
var percentileLevels = []int{500, 900, 990, 999}

// samplesBeyond returns how many of n samples rank above the nearest-rank
// percentile given in per-mille (the ceil(p·n)-th smallest sample). Integer
// arithmetic keeps 90% of 100 exactly 90.
func samplesBeyond(n, perMille int) int {
	k := (perMille*n + 999) / 1000
	return n - k
}

// highestPercentile returns the highest level of percentileLevels that has
// at least ten samples beyond it among n samples, and false when even the
// median has fewer (n < 20).
func highestPercentile(n int) (perMille int, ok bool) {
	for _, p := range percentileLevels {
		if samplesBeyond(n, p) >= 10 {
			perMille, ok = p, true
		}
	}
	return perMille, ok
}

// reportable reports whether the percentile (per-mille) of n samples has at
// least ten samples beyond it.
func reportable(n, perMille int) bool { return samplesBeyond(n, perMille) >= 10 }

// interval is a closed span of time in microseconds.
type interval struct{ start, end float64 }

func (iv interval) length() float64 { return iv.end - iv.start }

// coveredLength returns how much of parent the union of children covers.
// Children may overlap each other, nest inside each other, or stick out of
// the parent; only the part inside the parent counts, once.
func coveredLength(parent interval, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total float64
	var cur interval
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			cur, open = c, true
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			total += cur.length()
			cur = c
		}
	}
	if open {
		total += cur.length()
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) float64 {
	return parent.length() - coveredLength(parent, children)
}

// tally counts attempted and failed operations: every HTTP request, every
// simulation run and every correctness check is one operation. A refused
// request (429) or any other non-2xx response is a failure.
type tally struct {
	attempted, failed int
}

// record counts one operation and returns ok.
func (t *tally) record(ok bool) bool {
	t.attempted++
	if !ok {
		t.failed++
	}
	return ok
}

// status counts one HTTP exchange, failed unless the code is 2xx.
func (t *tally) status(code int) bool { return t.record(code >= 200 && code < 300) }

// add merges another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// rate is failed over attempted: the error_rate metric.
func (t tally) rate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
