package rl

import (
	"encoding/json"
	"fmt"
	"io"

	"hipster/internal/platform"
)

// tableSnapshot is the serialised form of a lookup table. The action
// space is stored explicitly so a loaded table can be validated against
// the manager's configuration space — a table trained for a different
// platform must not be silently applied.
type tableSnapshot struct {
	Version int              `json:"version"`
	Actions []actionSnapshot `json:"actions"`
	Values  [][]float64      `json:"values"`
	Visits  [][]int          `json:"visits"`
}

type actionSnapshot struct {
	NBig    int `json:"nbig"`
	NSmall  int `json:"nsmall"`
	BigFreq int `json:"big_freq_mhz"`
}

const snapshotVersion = 1

// Save serialises the table as JSON. Together with Load it lets a
// deployment warm-start Hipster from a previously learned table (the
// paper's deployment-stage tuning) instead of repeating the learning
// phase.
func (t *Table) Save(w io.Writer) error {
	snap := tableSnapshot{
		Version: snapshotVersion,
		Values:  t.Snapshot(),
	}
	for _, a := range t.actions {
		snap.Actions = append(snap.Actions, actionSnapshot{
			NBig: a.NBig, NSmall: a.NSmall, BigFreq: int(a.BigFreq),
		})
	}
	snap.Visits = t.VisitsSnapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(snap)
}

// Load restores a table previously written by Save. It fails unless the
// stored state count and action space exactly match the receiver's.
func (t *Table) Load(r io.Reader) error {
	var snap tableSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("rl: decode table: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("rl: unsupported table version %d", snap.Version)
	}
	if len(snap.Actions) != len(t.actions) {
		return fmt.Errorf("rl: table has %d actions, expected %d", len(snap.Actions), len(t.actions))
	}
	for i, a := range snap.Actions {
		want := t.actions[i]
		got := platform.Config{NBig: a.NBig, NSmall: a.NSmall, BigFreq: platform.FreqMHz(a.BigFreq)}
		if got != want {
			return fmt.Errorf("rl: action %d is %v, expected %v", i, got, want)
		}
	}
	if len(snap.Values) != t.states || len(snap.Visits) != t.states {
		return fmt.Errorf("rl: table has %d states, expected %d", len(snap.Values), t.states)
	}
	for i := range snap.Values {
		if len(snap.Values[i]) != len(t.actions) || len(snap.Visits[i]) != len(t.actions) {
			return fmt.Errorf("rl: state %d row width mismatch", i)
		}
	}
	for i := range snap.Values {
		copy(t.valRow(i), snap.Values[i])
		copy(t.visitRow(i), snap.Visits[i])
	}
	return nil
}

// deltaSnapshot is the wire form of a federation delta: what a node
// ships to the coordinator at each sync round.
type deltaSnapshot struct {
	Version int         `json:"version"`
	Cells   []DeltaCell `json:"cells"`
}

const deltaVersion = 1

// Save serialises the delta as JSON (the sync-round upload format).
func (d Delta) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(deltaSnapshot{Version: deltaVersion, Cells: d.Cells})
}

// LoadDelta restores a delta written by Delta.Save. Cell indices are
// validated against the given table shape so a delta trained for a
// different state or action space cannot be merged.
func LoadDelta(r io.Reader, nStates, nActions int) (Delta, error) {
	var snap deltaSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return Delta{}, fmt.Errorf("rl: decode delta: %w", err)
	}
	if snap.Version != deltaVersion {
		return Delta{}, fmt.Errorf("rl: unsupported delta version %d", snap.Version)
	}
	for _, c := range snap.Cells {
		if c.State < 0 || c.State >= nStates || c.Action < 0 || c.Action >= nActions {
			return Delta{}, fmt.Errorf("rl: delta cell (%d,%d) outside %dx%d table", c.State, c.Action, nStates, nActions)
		}
		if c.Visits <= 0 {
			return Delta{}, fmt.Errorf("rl: delta cell (%d,%d) has non-positive visits %d", c.State, c.Action, c.Visits)
		}
	}
	return Delta{Cells: snap.Cells}, nil
}
