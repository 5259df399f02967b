package gpu

import (
	"math"
	"sync"
	"sync/atomic"
)

// ladderKey identifies a clock ladder by the SKU values that define it:
// the StepDown chain depends on the clock grid (max, step, idle floor,
// coarse states) and the clock it starts from, nothing else. Keying by
// value rather than by *SKU keeps the cache bounded by the distinct
// grids and start clocks in use — a fleet that allocates one SKU per
// chip must not grow it. Floats are keyed by their bits so that every
// value, NaN included, finds its own entry. The coarse states are not
// comparable, so the key carries only their count and the entry list
// under it is matched against them.
type ladderKey struct {
	maxMHz, stepMHz, idleMHz, startMHz uint64
	nStates                            int
}

// ladder is the descending clock chain from a start clock down to the
// floor: clocks[0] is the start and each next entry is SKU.StepDown of
// the previous one, until StepDown stops moving down.
type ladder struct {
	states []float64 // copy of the defining ClockStatesMHz
	clocks []float64
}

var (
	// ladders is copy-on-write: readers load the current map without
	// locking or allocating; a miss builds the ladder and publishes a
	// grown copy under laddersMu. Entries are never evicted — the
	// catalog SKUs' grids hold a few hundred start clocks in all.
	ladders   atomic.Pointer[map[ladderKey][]*ladder]
	laddersMu sync.Mutex
)

// clockLadder returns the StepDown chain from start (a clock on the
// SKU's grid), shared by every chip whose SKU has the same grid.
func (s *SKU) clockLadder(start float64) []float64 {
	key := ladderKey{
		maxMHz:   math.Float64bits(s.MaxClockMHz),
		stepMHz:  math.Float64bits(s.ClockStepMHz),
		idleMHz:  math.Float64bits(s.IdleClockMHz),
		startMHz: math.Float64bits(start),
		nStates:  len(s.ClockStatesMHz),
	}
	if l := lookupLadder(ladders.Load(), key, s.ClockStatesMHz); l != nil {
		return l.clocks
	}

	laddersMu.Lock()
	defer laddersMu.Unlock()
	old := ladders.Load()
	if l := lookupLadder(old, key, s.ClockStatesMHz); l != nil {
		return l.clocks
	}
	l := &ladder{
		states: append([]float64(nil), s.ClockStatesMHz...),
		clocks: []float64{start},
	}
	for f := start; ; {
		next := s.StepDown(f)
		if next >= f {
			break
		}
		l.clocks = append(l.clocks, next)
		f = next
	}
	m := map[ladderKey][]*ladder{}
	if old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	m[key] = append(m[key][:len(m[key]):len(m[key])], l)
	ladders.Store(&m)
	return l.clocks
}

// lookupLadder finds the ladder for key whose coarse states match.
func lookupLadder(m *map[ladderKey][]*ladder, key ladderKey, states []float64) *ladder {
	if m == nil {
		return nil
	}
	for _, l := range (*m)[key] {
		if sameBits(l.states, states) {
			return l
		}
	}
	return nil
}

// sameBits reports whether a and b hold the same IEEE-754 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
