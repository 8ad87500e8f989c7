package main

import (
	"math"
	"sort"
	"time"
)

// failedLatency is what a failed op counts as in latency percentiles: the
// client's request timeout, the longest a user could have waited. Counting
// failures as slow instead of dropping them keeps a change from improving
// a tail percentile by failing the slow requests.
const failedLatency = clientTimeout

// latencies collects the latency of each op of one kind.
type latencies struct {
	ms     []float64
	failed int64
}

// ok records an op issued at t0 that succeeded now.
func (l *latencies) ok(t0 time.Time) {
	l.ms = append(l.ms, float64(time.Since(t0))/float64(time.Millisecond))
}

func (l *latencies) fail() {
	l.failed++
	l.ms = append(l.ms, float64(failedLatency)/float64(time.Millisecond))
}

func (l *latencies) merge(o *latencies) {
	l.ms = append(l.ms, o.ms...)
	l.failed += o.failed
}

func (l *latencies) n() int { return len(l.ms) }

// quantile returns the nearest-rank q-quantile of xs (q in [0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func isBad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perCall is a mean per call in microseconds, 0 when there were no calls.
func perCall(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
