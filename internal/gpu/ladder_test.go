package gpu

import (
	"math"
	"sync"
	"testing"

	"gpuvar/internal/rng"
)

// catalogSKUs are every SKU the studies instantiate.
var catalogSKUs = []func() *SKU{V100SXM2, MI60, RTX5000, A100SXM4}

// stepDownChain is the reference ladder: SKU.StepDown applied from start
// until it stops moving down.
func stepDownChain(s *SKU, start float64) []float64 {
	out := []float64{start}
	for f := start; ; {
		next := s.StepDown(f)
		if next >= f {
			return out
		}
		out = append(out, next)
		f = next
	}
}

// linearMaxClockUnderCap is the step-by-step reference for
// MaxClockUnderCap: walk down from the top clock and stop at the first
// clock under the cap, or at the floor.
func linearMaxClockUnderCap(c *Chip, capW, tempC float64, act Activity) (fMHz, powerW float64) {
	f := c.SKU.QuantizeClock(c.MaxUsableClockMHz())
	for {
		p := c.TotalPower(f, tempC, act)
		if p <= capW {
			return f, p
		}
		next := c.SKU.StepDown(f)
		if next >= f {
			return f, p
		}
		f = next
	}
}

// sampleChips draws chips of sku across the manufacturing spread (with a
// widened tail) and every defect kind, so capped, braked, stalled and
// badly cooled parts are all covered.
func sampleChips(sku *SKU, r *rng.Source, n int) []*Chip {
	vm := DefaultVariation()
	vm.VoltSpread *= 3
	vm.LeakSpread *= 2
	kinds := []DefectKind{DefectNone, DefectStall, DefectPowerBrake, DefectCooling, DefectClockStuck}
	chips := []*Chip{NewChip(sku, "nominal", VariationModel{}, nil)}
	for i := 0; i < n; i++ {
		c := NewChip(sku, "g", vm, r)
		if k := kinds[i%len(kinds)]; k != DefectNone {
			c.InjectDefect(k, r)
		}
		chips = append(chips, c)
	}
	return chips
}

// sampleActivity returns kernel-like activities plus the corners.
func sampleActivity(r *rng.Source, i int) Activity {
	switch i % 6 {
	case 0:
		return Activity{}
	case 1:
		return Activity{Compute: 1, Memory: 1}
	case 2:
		return sgemmAct
	default:
		return Activity{Compute: r.Float64(), Memory: r.Float64()}
	}
}

// Property: total power never decreases going up a chip's clock ladder
// at a fixed temperature and activity. MaxClockUnderCap's binary search
// is exact only because of this.
func TestTotalPowerMonotoneOnLadder(t *testing.T) {
	r := rng.New(7)
	for _, mk := range catalogSKUs {
		sku := mk()
		for ci, c := range sampleChips(sku, r, 60) {
			ladder := stepDownChain(sku, sku.QuantizeClock(c.MaxUsableClockMHz()))
			for i := 0; i < 20; i++ {
				tempC := 15 + r.Float64()*100
				act := sampleActivity(r, i)
				for j := 0; j+1 < len(ladder); j++ {
					hi := c.TotalPower(ladder[j], tempC, act)
					lo := c.TotalPower(ladder[j+1], tempC, act)
					if hi < lo {
						t.Fatalf("%s chip %d (%v): power %v W at %v MHz < %v W at %v MHz (%.2f °C, %+v)",
							sku.Name, ci, c.Defect, hi, ladder[j], lo, ladder[j+1], tempC, act)
					}
				}
			}
		}
	}
}

// The cached ladder from every start clock on each SKU's grid is the
// StepDown chain, bit for bit, and equal grids share one ladder.
func TestClockLadderMatchesStepDownChain(t *testing.T) {
	for _, mk := range catalogSKUs {
		sku := mk()
		for _, start := range stepDownChain(sku, sku.QuantizeClock(sku.MaxClockMHz)) {
			got, want := sku.clockLadder(start), stepDownChain(sku, start)
			if !sameBits(got, want) {
				t.Fatalf("%s from %v MHz: ladder %v, StepDown chain %v", sku.Name, start, got, want)
			}
			// A second SKU value with the same grid shares the ladder.
			if again := mk().clockLadder(start); &again[0] != &got[0] {
				t.Fatalf("%s from %v MHz: equal SKUs built separate ladders", sku.Name, start)
			}
		}
	}
}

// Coarse-state lists of equal length but different clocks must not
// share a ladder.
func TestClockLadderKeysStates(t *testing.T) {
	a, b := MI60(), MI60()
	b.ClockStatesMHz = append([]float64(nil), b.ClockStatesMHz...)
	b.ClockStatesMHz[5] = 1250
	start := a.QuantizeClock(a.MaxClockMHz)
	if la, lb := a.clockLadder(start), b.clockLadder(start); sameBits(la, lb) {
		t.Fatalf("distinct state lists share ladder %v", la)
	}
	if lb, want := b.clockLadder(start), stepDownChain(b, start); !sameBits(lb, want) {
		t.Fatalf("modified MI60 ladder %v, StepDown chain %v", lb, want)
	}
}

// MaxClockUnderCap returns exactly the step-by-step scan's clock and
// power, for caps across the whole ladder, below the floor's power and
// above the top clock's.
func TestMaxClockUnderCapMatchesLinearScan(t *testing.T) {
	r := rng.New(11)
	for _, mk := range catalogSKUs {
		sku := mk()
		for ci, c := range sampleChips(sku, r, 40) {
			for i := 0; i < 40; i++ {
				tempC := 15 + r.Float64()*100
				act := sampleActivity(r, i)
				caps := []float64{
					-1, 0, c.IdlePower(tempC) / 2, // below the floor's power
					sku.TDPWatts, c.BoardCapW, 2 * sku.TDPWatts, math.Inf(1),
					c.TotalPower(sku.ClockFloorMHz(), tempC, act), // exactly the floor
					50 + r.Float64()*400,
				}
				for _, capW := range caps {
					f, p := c.MaxClockUnderCap(capW, tempC, act)
					wf, wp := linearMaxClockUnderCap(c, capW, tempC, act)
					if math.Float64bits(f) != math.Float64bits(wf) || math.Float64bits(p) != math.Float64bits(wp) {
						t.Fatalf("%s chip %d (%v) cap %v W at %.2f °C %+v: got (%v MHz, %v W), linear scan (%v MHz, %v W)",
							sku.Name, ci, c.Defect, capW, tempC, act, f, p, wf, wp)
					}
				}
			}
		}
	}
}

// Chips on many goroutines share the ladder cache: concurrent misses on
// a grid no other test uses, and hits, all see the StepDown chain.
func TestClockLadderConcurrent(t *testing.T) {
	grid := func() *SKU {
		s := RTX5000()
		s.IdleClockMHz = 301.25 // a grid of this test's own
		return s
	}
	ref := grid()
	starts := stepDownChain(ref, ref.QuantizeClock(ref.MaxClockMHz))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := grid()
			for i := range starts {
				start := starts[(i+g*7)%len(starts)]
				if got := s.clockLadder(start); !sameBits(got, stepDownChain(s, start)) {
					t.Errorf("goroutine %d from %v MHz: ladder %v", g, start, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
