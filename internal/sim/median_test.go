package sim

import (
	"math"
	"sort"
	"testing"

	"gpuvar/internal/rng"
)

// sortedMedian is the reference: sort a copy, take the middle element or
// the mean of the middle pair.
func sortedMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func TestMedianFloatMatchesSortedMedian(t *testing.T) {
	cases := [][]float64{
		nil,
		{4},
		{2, 1},
		{1, 1},
		{3, 1, 2},
		{1, 2, 3, 4},
		{5, 5, 5, 5, 5, 5},
		{2, 2, 1, 1, 2, 1},
		{9, 1, 9, 1, 9},
		{math.Inf(1), 1, 2, math.Inf(-1)},
	}
	r := rng.New(5)
	for n := 1; n <= 300; n++ {
		for _, levels := range []int{0, 2, 5} {
			xs := make([]float64, n)
			for i := range xs {
				if levels == 0 {
					xs[i] = r.LogNormalMeanSpread(2510, 0.05)
				} else {
					xs[i] = float64(r.Intn(levels)) * 0.1
				}
			}
			cases = append(cases, xs)
		}
		asc := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i) / 3
		}
		desc := make([]float64, n)
		for i := range desc {
			desc[i] = asc[n-1-i]
		}
		cases = append(cases, asc, desc)
	}
	for _, xs := range cases {
		want := sortedMedian(xs)
		got := medianFloat(append([]float64(nil), xs...))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("medianFloat(%v) = %v, sorted median %v", xs, got, want)
		}
	}
}
