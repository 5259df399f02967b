package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependentOfDrawOrder(t *testing.T) {
	a := New(7)
	childBefore := a.Split("thermal")
	want := childBefore.Uint64()

	b := New(7)
	for i := 0; i < 57; i++ {
		b.Uint64() // draw from parent first
	}
	childAfter := b.Split("thermal")
	if got := childAfter.Uint64(); got != want {
		t.Fatalf("Split sensitive to parent draw order: got %d want %d", got, want)
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	a := New(7).Split("x")
	b := New(7).Split("y")
	if a.Uint64() == b.Uint64() {
		t.Fatal("different labels produced identical first draw")
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	parent := New(3)
	seen := map[uint64]int{}
	for i := 0; i < 500; i++ {
		v := parent.SplitIndex("gpu", i).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("SplitIndex %d collides with %d", i, prev)
		}
		seen[v] = i
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d count %d deviates from %v", i, c, expect)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(19)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestGaussianMoments(t *testing.T) {
	r := New(23)
	const draws = 100000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += r.Gaussian(5, 2)
	}
	if mean := sum / draws; math.Abs(mean-5) > 0.05 {
		t.Errorf("Gaussian(5,2) mean = %v", mean)
	}
}

func TestLogNormalMeanSpread(t *testing.T) {
	r := New(29)
	const draws = 200000
	var sum float64
	min := math.Inf(1)
	for i := 0; i < draws; i++ {
		v := r.LogNormalMeanSpread(1.0, 0.025)
		sum += v
		if v < min {
			min = v
		}
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.005 {
		t.Errorf("LogNormalMeanSpread mean = %v, want ~1", mean)
	}
	if min <= 0 {
		t.Errorf("LogNormal produced non-positive draw %v", min)
	}
}

func TestLogNormalZeroSpread(t *testing.T) {
	r := New(31)
	if v := r.LogNormalMeanSpread(3.5, 0); v != 3.5 {
		t.Fatalf("zero spread should return mean exactly, got %v", v)
	}
}

func TestTruncGaussianBounds(t *testing.T) {
	r := New(37)
	for i := 0; i < 10000; i++ {
		v := r.TruncGaussian(0, 10, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncGaussian out of bounds: %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(41)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += r.Exp(3)
	}
	if mean := sum / draws; math.Abs(mean-3) > 0.05 {
		t.Errorf("Exp(3) mean = %v", mean)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(43)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(47)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(53)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestChoiceWeights(t *testing.T) {
	r := New(59)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Choice(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("Choice ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanicsOnNoWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice with no positive weight did not panic")
		}
	}()
	New(1).Choice([]float64{0, -1})
}

// Property: Intn never escapes its bound for arbitrary seeds and bounds.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Split determinism — same (seed, label) pair is always the
// same stream.
func TestSplitProperty(t *testing.T) {
	f := func(seed uint64, label string) bool {
		return New(seed).Split(label).Uint64() == New(seed).Split(label).Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

func TestLogNormalParamsMatchesMeanSpread(t *testing.T) {
	for _, c := range []struct{ mean, spread float64 }{
		{1, 0.2}, {1, 0.0125}, {1, 1e-300}, {3.5, 0.07}, {0.4, 2},
	} {
		a, b := New(41), New(41)
		mu, sigma := LogNormalParams(c.mean, c.spread)
		for i := 0; i < 1000; i++ {
			want := a.LogNormalMeanSpread(c.mean, c.spread)
			if got := b.LogNormal(mu, sigma); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("mean %v spread %v draw %d: LogNormal(LogNormalParams) = %v, LogNormalMeanSpread = %v",
					c.mean, c.spread, i, got, want)
			}
		}
	}
}
