package main

import (
	"math"
	"sort"
	"sync"
)

// recorder collects one op type's latencies. A failed or refused op is kept
// as an infinite latency, so it lands above every percentile it can reach
// instead of vanishing from the distribution. Safe for concurrent use.
type recorder struct {
	mu      sync.Mutex
	samples []float64 // ms; +Inf for a failed op
	failed  int64
}

func (r *recorder) ok(ms float64) {
	r.mu.Lock()
	r.samples = append(r.samples, ms)
	r.mu.Unlock()
}

func (r *recorder) fail() {
	r.mu.Lock()
	r.samples = append(r.samples, math.Inf(1))
	r.failed++
	r.mu.Unlock()
}

// counts returns attempted and failed ops.
func (r *recorder) counts() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.samples)), r.failed
}

// latencies returns a copy of every recorded latency.
func (r *recorder) latencies() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples...)
}

// quantile returns the q-quantile (0 < q ≤ 1) of every recorded latency,
// failures included as +Inf, by the nearest-rank rule. NaN when empty.
func (r *recorder) quantile(q float64) float64 { return quantile(r.latencies(), q) }

// absorb appends every outcome src recorded.
func (r *recorder) absorb(src *recorder) {
	xs := src.latencies()
	_, failed := src.counts()
	r.mu.Lock()
	r.samples = append(r.samples, xs...)
	r.failed += failed
	r.mu.Unlock()
}

// succeeded returns how many recorded ops succeeded.
func (r *recorder) succeeded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.samples)) - r.failed
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// mean is the arithmetic mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return ys[n/2]
	default:
		return (ys[n/2-1] + ys[n/2]) / 2
	}
}

// counters is a named snapshot of monotonically increasing counts.
type counters map[string]int64

// delta returns after − before per name. A name missing from before counts
// from zero; a name missing from after is dropped.
func delta(before, after counters) counters {
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// add folds src into dst, summing names both hold.
func (c counters) add(src counters) {
	for k, v := range src {
		c[k] += v
	}
}

// perOp divides a count by ops; 0 when no op ran.
func perOp(count int64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(count) / float64(ops)
}

// relDiff is (a-b)/b, 0 when b is 0.
func relDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - b) / b
}

// frac is num/den, 0 when den is 0.
func frac(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
