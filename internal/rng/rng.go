// Package rng provides deterministic, splittable pseudo-random number
// generation for reproducible fleet instantiation and simulation.
//
// Every stochastic component of the simulator (manufacturing spread,
// defect placement, inlet temperatures, workload jitter) draws from an
// rng.Source derived from a single experiment seed, so an entire
// cluster-scale experiment is reproducible from one 64-bit value.
//
// The generator is xoshiro256**, seeded through SplitMix64 as recommended
// by its authors. Splitting derives statistically independent child
// streams from (seed, label) pairs, so adding a new consumer of
// randomness never perturbs the draws of existing consumers.
package rng

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; derive one Source per goroutine with Split.
type Source struct {
	seed uint64 // original seed material; immutable, used by Split
	s    [4]uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	src := Source{seed: seed}
	state := seed
	for i := range src.s {
		src.s[i] = splitmix64(&state)
	}
	// xoshiro must not be seeded with all zeros; SplitMix64 of any seed
	// cannot produce four zero outputs in a row, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

// Split derives an independent child stream identified by label.
// Splitting the same Source with the same label always yields the same
// child stream, regardless of how many values were drawn in between.
func (r *Source) Split(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	// Mix the child from the parent's seed material, not its current
	// position, so Split is insensitive to draw order.
	return New(r.seed ^ h.Sum64())
}

// SplitIndex derives an independent child stream identified by an integer,
// convenient for per-GPU or per-node streams.
func (r *Source) SplitIndex(label string, i int) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var buf [8]byte
	v := uint64(i)
	for b := 0; b < 8; b++ {
		buf[b] = byte(v >> (8 * b))
	}
	_, _ = h.Write(buf[:])
	return New(r.seed ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	return aHi*bHi + w2 + (w1 >> 32), a * b
}

// Norm returns a standard normal draw (mean 0, stddev 1) using the
// Marsaglia polar method.
func (r *Source) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Gaussian returns a normal draw with the given mean and standard
// deviation.
func (r *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// LogNormal returns a lognormal draw whose underlying normal has the
// given mu and sigma.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// LogNormalMeanSpread returns a lognormal draw parameterized by its own
// mean and a fractional spread (coefficient of variation). Convenient for
// "mean 1.0 with 2.5% chip-to-chip spread"-style manufacturing knobs.
func (r *Source) LogNormalMeanSpread(mean, spread float64) float64 {
	if spread <= 0 {
		return mean
	}
	return r.LogNormal(LogNormalParams(mean, spread))
}

// LogNormalParams returns the underlying normal's mu and sigma for a
// lognormal with the given mean and fractional spread (spread > 0).
// LogNormal(LogNormalParams(mean, spread)) is exactly
// LogNormalMeanSpread(mean, spread), so hot loops drawing many values
// with one parameterization compute the logs and root once.
func LogNormalParams(mean, spread float64) (mu, sigma float64) {
	sigma2 := math.Log(1 + spread*spread)
	return math.Log(mean) - sigma2/2, math.Sqrt(sigma2)
}

// TruncGaussian returns a normal draw clamped to [lo, hi].
func (r *Source) TruncGaussian(mean, stddev, lo, hi float64) float64 {
	v := r.Gaussian(mean, stddev)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Exp returns an exponential draw with the given mean. Used for job
// inter-arrival stagger.
func (r *Source) Exp(mean float64) float64 {
	return -mean * math.Log(1-r.Float64())
}

// Pareto returns a Pareto draw with minimum xm and shape alpha. Heavy
// tails model rare severe defects.
func (r *Source) Pareto(xm, alpha float64) float64 {
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a uniformly chosen index weighted by w. It panics if all
// weights are zero or negative.
func (r *Source) Choice(w []float64) int {
	var total float64
	for _, v := range w {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		panic("rng: Choice with no positive weights")
	}
	target := r.Float64() * total
	for i, v := range w {
		if v <= 0 {
			continue
		}
		target -= v
		if target < 0 {
			return i
		}
	}
	return len(w) - 1
}
