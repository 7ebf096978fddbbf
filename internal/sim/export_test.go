package sim

import "fmt"

// Test hooks for the external sim_test package.

// CheckSlotMatrix runs checkSlotMatrix on e.
func CheckSlotMatrix(e *CountEngine) error { return e.checkSlotMatrix() }

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
