package gpu

import "math"

// Activity describes how hard a running kernel drives the chip's power
// rails. Both factors are in [0, 1]: Compute is the arithmetic
// functional-unit activity (the paper's "FU utilization" divided by 10),
// Memory is DRAM activity. A kernel that stalls on memory dependencies
// has low Compute even while nominally resident.
type Activity struct {
	Compute float64
	Memory  float64
}

// clamp01 clamps x into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// memPowerWeight is the fraction of the dynamic-power coefficient
// attributable to the memory subsystem at full memory activity. DRAM and
// the memory controller draw real power, but far less than saturated
// FP units — this is why memory-bound workloads run well under TDP
// (paper §V-C: LAMMPS ≤ 180 W on a 300 W part).
const memPowerWeight = 0.16

// Voltage returns the chip's required core voltage at frequency fMHz.
// The SKU curve is quadratic in the clock fraction — real V/F curves are
// convex, shallow at low clocks and steep in the boost region, which is
// what makes the top few hundred MHz so power-expensive. The chip-quality
// factor scales the curve, so worse chips need more volts per clock.
func (c *Chip) Voltage(fMHz float64) float64 {
	s := c.SKU
	span := s.MaxClockMHz - s.IdleClockMHz
	frac := 0.0
	if span > 0 {
		frac = (fMHz - s.IdleClockMHz) / span
	}
	frac = clamp01(frac)
	e := s.VFExponent
	if e == 0 {
		e = 2
	}
	v := s.VoltMinV + (s.VoltMaxV-s.VoltMinV)*math.Pow(frac, e)
	return v * c.VoltFactor
}

// DynamicPower returns the activity-dependent power in watts at clock
// fMHz: A · act_eff · (f/fmax) · (V/Vmax)². The quadratic voltage term is
// what turns a small chip-quality spread into a visible frequency spread
// under a fixed power cap.
func (c *Chip) DynamicPower(fMHz float64, act Activity) float64 {
	s := c.SKU
	v := c.Voltage(fMHz)
	vn := v / s.VoltMaxV
	fn := fMHz / s.MaxClockMHz
	actEff := (1-memPowerWeight)*clamp01(act.Compute) + memPowerWeight*clamp01(act.Memory)
	return s.DynCoeffW * actEff * fn * vn * vn
}

// LeakagePower returns static leakage in watts at die temperature tempC.
// Leakage grows exponentially with temperature (the classic subthreshold
// model); this couples cooling quality into the power budget and hence
// into DVFS headroom on air-cooled clusters.
func (c *Chip) LeakagePower(tempC float64) float64 {
	const refC, scaleC = 25.0, 48.0
	return c.SKU.LeakRefWatts * c.LeakFactor * math.Exp((tempC-refC)/scaleC)
}

// TotalPower returns idle + leakage + dynamic power in watts.
func (c *Chip) TotalPower(fMHz, tempC float64, act Activity) float64 {
	return c.SKU.IdleWatts + c.LeakagePower(tempC) + c.DynamicPower(fMHz, act)
}

// IdlePower returns the power with no kernel resident (clocks parked).
func (c *Chip) IdlePower(tempC float64) float64 {
	return c.SKU.IdleWatts + c.LeakagePower(tempC)
}

// MaxClockUnderCap returns the highest quantized clock whose total power
// at the given temperature and activity stays at or below capW, together
// with that power. It never returns a clock below the SKU floor: real
// DVFS cannot stop the part, so at the floor the cap may be exceeded.
//
// This is the analytic core used by both the transient DVFS controller
// (as its target) and the steady-state solver. Total power never
// decreases going up the SKU's StepDown ladder, so the clocks under the
// cap form the ladder's low end and a binary search finds its top. The
// idle-plus-leakage term is summed once per call, in the same order
// TotalPower sums it, so every returned bit matches a step-by-step scan
// down from the top clock.
func (c *Chip) MaxClockUnderCap(capW, tempC float64, act Activity) (fMHz, powerW float64) {
	static := c.IdlePower(tempC)
	clocks := c.SKU.clockLadder(c.SKU.QuantizeClock(c.MaxUsableClockMHz()))
	// The floor is the answer whenever nothing above it fits, so the
	// search covers every clock but the last.
	lo, hi := 0, len(clocks)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if static+c.DynamicPower(clocks[mid], act) <= capW {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	f := clocks[lo]
	return f, static + c.DynamicPower(f, act)
}
