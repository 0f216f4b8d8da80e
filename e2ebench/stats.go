package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// durs is a latency sample.
type durs []time.Duration

// pct is the nearest-rank percentile p (0 < p <= 100) in microseconds, or
// 0 for an empty sample.
func (d durs) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durs(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k]) / 1e3
}

func (d durs) p50() float64 { return d.pct(50) }

// median of float values (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is how runs of this benchmark are compared.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapInUse is the bytes of heap objects, live or not yet swept.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
