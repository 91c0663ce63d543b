package rl

import "fmt"

// Federation support: a node's Table can export the learning it
// accumulated since a checkpoint as a compact Delta, and absorb the
// merged fleet table a federation coordinator broadcasts back. Both
// directions are pure data movement — the merge policy itself lives in
// internal/federation, which works on the value/visit matrices.

// DeltaCell carries one (state, action) cell that changed since the
// checkpoint: the node's current value estimate and how many table
// updates it applied to the cell since then.
type DeltaCell struct {
	State  int
	Action int
	Value  float64
	Visits int
}

// Delta is the mergeable unit of table federation: the set of cells a
// node updated since its last sync, in row-major (state, action) order.
type Delta struct {
	Cells []DeltaCell
}

// Checkpoint is a visit-count baseline for delta extraction: a flat
// copy of the table's visit counts, in the table's row-major layout,
// and the row width it was taken at. It is a deep copy: later table
// updates do not move the baseline.
type Checkpoint struct {
	visits []int
	width  int
}

// Checkpoint captures the table's current visit counts as the baseline
// the next DeltaSince call diffs against.
func (t *Table) Checkpoint() Checkpoint {
	cp := Checkpoint{visits: make([]int, len(t.visits)), width: len(t.actions)}
	copy(cp.visits, t.visits)
	return cp
}

// CheckpointInto re-captures the table's visit counts into cp, copying
// into cp's array when its shape matches the table's and allocating as
// Checkpoint does otherwise. The caller must be cp's only holder.
func (t *Table) CheckpointInto(cp *Checkpoint) {
	if len(cp.visits) != len(t.visits) || cp.width != len(t.actions) {
		*cp = t.Checkpoint()
		return
	}
	copy(cp.visits, t.visits)
}

// DeltaSince appends the cells updated since the checkpoint to dst, in
// row-major order (deterministic for a given table history), and
// returns the extended buffer; a caller that passes its previous
// buffer back, truncated, extracts deltas without allocating. A cell
// whose visit count decreased — the table was reset since the
// checkpoint — contributes nothing.
func (t *Table) DeltaSince(cp Checkpoint, dst []DeltaCell) ([]DeltaCell, error) {
	n := len(t.actions)
	if len(cp.visits) != len(t.visits) || cp.width != n {
		return dst, fmt.Errorf("rl: checkpoint of %d cells in rows of %d, table %dx%d", len(cp.visits), cp.width, t.states, n)
	}
	for i, v := range t.visits {
		if grew := v - cp.visits[i]; grew > 0 {
			dst = append(dst, DeltaCell{State: i / n, Action: i % n, Value: t.vals[i], Visits: grew})
		}
	}
	return dst, nil
}

// Absorb overwrites the table's values and visit counts with the given
// matrices (a federation broadcast), each flat and row-major like the
// table's own, so the broadcast is two copies. The action space is
// untouched; each matrix must hold exactly the table's cells.
func (t *Table) Absorb(vals []float64, visits []int) error {
	if len(vals) != len(t.vals) || len(visits) != len(t.visits) {
		return fmt.Errorf("rl: absorb of %d values and %d visit counts into a %dx%d table", len(vals), len(visits), t.states, len(t.actions))
	}
	copy(t.vals, vals)
	copy(t.visits, visits)
	return nil
}

// VisitsSnapshot copies the visit-count matrix, one row per state (the
// table's per-cell confidence, used by merge policies and reports).
func (t *Table) VisitsSnapshot() [][]int { return Rows(t.visits, len(t.actions)) }
