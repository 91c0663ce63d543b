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
	State  int     `json:"state"`
	Action int     `json:"action"`
	Value  float64 `json:"value"`
	Visits int     `json:"visits"`
}

// Delta is the mergeable unit of table federation: the set of cells a
// node updated since its last sync, in row-major (state, action) order.
type Delta struct {
	Cells []DeltaCell `json:"cells"`
}

// Empty reports whether the delta carries no updates.
func (d Delta) Empty() bool { return len(d.Cells) == 0 }

// TotalVisits sums the per-cell update counts.
func (d Delta) TotalVisits() int {
	n := 0
	for _, c := range d.Cells {
		n += c.Visits
	}
	return n
}

// Checkpoint is a visit-count baseline for delta extraction. It is a
// deep copy: later table updates do not move the baseline.
type Checkpoint struct {
	visits [][]int
}

// Checkpoint captures the table's current visit counts as the baseline
// the next DeltaSince call diffs against.
func (t *Table) Checkpoint() Checkpoint {
	cp := Checkpoint{visits: make([][]int, len(t.visits))}
	for i, row := range t.visits {
		cp.visits[i] = make([]int, len(row))
		copy(cp.visits[i], row)
	}
	return cp
}

// CheckpointInto re-captures the table's visit counts into cp, copying
// into cp's rows when its shape matches the table's and allocating as
// Checkpoint does otherwise. The caller must be cp's only holder.
func (t *Table) CheckpointInto(cp *Checkpoint) {
	if len(cp.visits) != len(t.visits) {
		*cp = t.Checkpoint()
		return
	}
	for i, row := range t.visits {
		if len(cp.visits[i]) != len(row) {
			*cp = t.Checkpoint()
			return
		}
		copy(cp.visits[i], row)
	}
}

// DeltaSince returns the cells updated since the checkpoint, in
// row-major order (deterministic for a given table history). A cell
// whose visit count decreased — the table was reset since the
// checkpoint — contributes nothing.
func (t *Table) DeltaSince(cp Checkpoint) (Delta, error) {
	if len(cp.visits) != len(t.visits) {
		return Delta{}, fmt.Errorf("rl: checkpoint has %d states, table %d", len(cp.visits), len(t.visits))
	}
	var d Delta
	for s, row := range t.visits {
		if len(cp.visits[s]) != len(row) {
			return Delta{}, fmt.Errorf("rl: checkpoint state %d has %d actions, table %d", s, len(cp.visits[s]), len(row))
		}
		for a, n := range row {
			if grew := n - cp.visits[s][a]; grew > 0 {
				d.Cells = append(d.Cells, DeltaCell{
					State: s, Action: a, Value: t.vals[s][a], Visits: grew,
				})
			}
		}
	}
	return d, nil
}

// Absorb overwrites the table's values and visit counts with the given
// matrices (a federation broadcast). The action space is untouched; the
// matrices must match the table's shape exactly.
func (t *Table) Absorb(vals [][]float64, visits [][]int) error {
	if len(vals) != len(t.vals) || len(visits) != len(t.vals) {
		return fmt.Errorf("rl: absorb of %dx%d matrices into %d-state table", len(vals), len(visits), len(t.vals))
	}
	for s := range t.vals {
		if len(vals[s]) != len(t.actions) || len(visits[s]) != len(t.actions) {
			return fmt.Errorf("rl: absorb state %d row width mismatch", s)
		}
	}
	for s := range t.vals {
		copy(t.vals[s], vals[s])
		copy(t.visits[s], visits[s])
	}
	return nil
}

// VisitsSnapshot copies the visit-count matrix (the table's per-cell
// confidence, used by merge policies and reports).
func (t *Table) VisitsSnapshot() [][]int {
	out := make([][]int, len(t.visits))
	for i, row := range t.visits {
		out[i] = make([]int, len(row))
		copy(out[i], row)
	}
	return out
}
