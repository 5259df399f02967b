package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// timing sets name.p50, name.p99 and name.n from samples in the given
// unit.
func (m metrics) timing(name string, xs []float64, unit string) {
	m.set(name+".p50", quantile(xs, 0.5), unit)
	m.set(name+".p99", quantile(xs, 0.99), unit)
	m.set(name+".n", float64(len(xs)), "count")
}

// ratio sets name to num/den and name.base to den, so every ratio
// travels with its base.
func (m metrics) ratio(name string, num, den float64) {
	r := 0.0
	if den > 0 {
		r = num / den
	}
	m.set(name, r, "ratio")
	m.set(name+".base", den, "count")
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tail is the q-quantile of xs taken per slice: xs, in schedule
// order, is cut into equal slices just long enough for each slice's
// q-quantile to have ten samples beyond it, and the median of the
// slices' quantiles is returned. One congestion episode on a shared
// machine then moves one slice, not the whole run's tail; with fewer
// samples than one slice needs, it is the plain quantile.
func tail(xs []float64, q float64) float64 {
	per := int(math.Ceil(10 / (1 - q)))
	k := max(1, len(xs)/per)
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	sort.Float64s(qs)
	if k%2 == 1 {
		return qs[k/2]
	}
	return (qs[k/2-1] + qs[k/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
