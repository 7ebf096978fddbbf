package sim

import "fmt"

// Test hooks for the external sim_test package.

// CheckSlotMatrix runs checkSlotMatrix on e.
func CheckSlotMatrix(e *CountEngine) error { return e.checkSlotMatrix() }

// CheckWindow runs checkWindow on e's configuration.
func CheckWindow(e *CountEngine) error { return e.c.checkWindow() }

// CheckMirror runs checkMirror on p.
func CheckMirror(p *SpecAgent) error { return p.checkMirror() }

// PlanTau runs one serial pre-leap τ-sizing pass.
func PlanTau(e *CountEngine) (int64, bool) { return e.planTau() }

// PlanTauSharded runs one sharded pre-leap τ-sizing pass (flow pass and
// serial classify); e must have Config.Shards ≥ 2.
func PlanTauSharded(e *CountEngine) (int64, bool) { return e.planTauSharded() }

// checkSlotMatrix verifies the batch planner's occupied-slot matrix
// against det: the matrix stays within slotCap, slot ownership is a
// bijection, no two occupied states share a slot, and every filled cell
// between two held slots equals det's entry for the owners' pair. It
// returns nil for engines that have not planned a batch epoch.
func (e *CountEngine) checkSlotMatrix() error {
	if e.bp == nil || e.bp.slots == nil {
		return nil
	}
	sm := e.bp.slots
	if sm.stride > slotCap || len(sm.mat) != sm.stride*sm.stride || len(sm.owner) > sm.stride {
		return fmt.Errorf("matrix stride %d (cap %d) with %d cells and %d slots", sm.stride, slotCap, len(sm.mat), len(sm.owner))
	}
	for s, o := range sm.owner {
		if o >= 0 && sm.slot(int(o)) != s {
			return fmt.Errorf("slot %d is owned by state %d, which maps to slot %d", s, o, sm.slot(int(o)))
		}
	}
	holder := make(map[int]int)
	for _, i := range e.occ {
		s := sm.slot(i)
		if s < 0 {
			continue
		}
		if prev, dup := holder[s]; dup {
			return fmt.Errorf("occupied states %d and %d share slot %d", prev, i, s)
		}
		holder[s] = i
		if int(sm.owner[s]) != i {
			return fmt.Errorf("occupied state %d maps to slot %d, owned by %d", i, s, sm.owner[s])
		}
	}
	for a, oa := range sm.owner {
		for b, ob := range sm.owner {
			if oa < 0 || ob < 0 {
				continue
			}
			cell := sm.mat[a*sm.stride+b]
			if cell.kind == pairUnknown {
				continue
			}
			if want, ok := e.bp.det[uint64(uint32(oa))<<32|uint64(uint32(ob))]; !ok || cell != want {
				return fmt.Errorf("cell (%d, %d) for pair (%d, %d) is %+v, det has %+v (present %v)", a, b, oa, ob, cell, want, ok)
			}
		}
	}
	return nil
}

// checkWindow verifies the occupied window: [lo, hi) lies within the
// dense slots, every count outside it is zero, and its first and last
// slots are occupied.
func (c *CountConfig) checkWindow() error {
	if c.lo < 0 || c.lo >= c.hi || c.hi > len(c.counts) {
		return fmt.Errorf("window [%d, %d) over %d slots", c.lo, c.hi, len(c.counts))
	}
	for i, cnt := range c.counts {
		if cnt != 0 && (i < c.lo || i >= c.hi) {
			return fmt.Errorf("slot %d holds %d agents outside the window [%d, %d)", i, cnt, c.lo, c.hi)
		}
	}
	if c.counts[c.lo] <= 0 || c.counts[c.hi-1] <= 0 {
		return fmt.Errorf("window [%d, %d) ends on an empty slot (counts %d, %d)", c.lo, c.hi, c.counts[c.lo], c.counts[c.hi-1])
	}
	return nil
}

// checkMirror verifies the agent adapter's count mirror against a
// recount of the code array: every registered state is found at its own
// slot and holds exactly the agents in it, every agent's state is
// registered, and the occupied window is tight. It returns nil before a
// sampler spec's one-shot initialization has run.
func (p *SpecAgent) checkMirror() error {
	if p.code == nil {
		return nil
	}
	hist := make(map[uint64]int64)
	for _, code := range p.code {
		hist[code]++
	}
	c := &p.view
	for i, code := range c.codes {
		if j, ok := c.find(code); !ok || j != i {
			return fmt.Errorf("state %#x registered at slot %d, found at %d (%v)", code, i, j, ok)
		}
		if c.counts[i] != hist[code] {
			return fmt.Errorf("mirror holds %d agents in state %#x, the code array %d", c.counts[i], code, hist[code])
		}
	}
	for code, cnt := range hist {
		if got := c.Count(code); got != cnt {
			return fmt.Errorf("mirror counts %d agents in state %#x, the code array %d", got, code, cnt)
		}
	}
	return c.checkWindow()
}
