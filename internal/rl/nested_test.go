package rl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hipster/internal/platform"
)

// nestedTable is the lookup table in its nested-row layout, one value
// row and one visit row per state, with checkpoints, deltas, absorb and
// Save/Load written against that layout. It is the reference the flat
// Table is pinned to, cell for cell and byte for byte.
type nestedTable struct {
	actions []platform.Config
	vals    [][]float64
	visits  [][]int
}

func newNestedTable(nStates int, actions []platform.Config) *nestedTable {
	t := &nestedTable{actions: slices.Clone(actions)}
	t.vals = make([][]float64, nStates)
	t.visits = make([][]int, nStates)
	for i := range t.vals {
		t.vals[i] = make([]float64, len(actions))
		t.visits[i] = make([]int, len(actions))
	}
	return t
}

func (t *nestedTable) best(state int) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range t.vals[state] {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

func (t *nestedTable) update(state, action, nextState int, reward, alpha, gamma float64) {
	cur := t.vals[state][action]
	t.vals[state][action] = cur + alpha*(reward+gamma*t.vals[nextState][t.best(nextState)]-cur)
	t.visits[state][action]++
}

func (t *nestedTable) checkpoint() [][]int {
	cp := make([][]int, len(t.visits))
	for i, row := range t.visits {
		cp[i] = slices.Clone(row)
	}
	return cp
}

func (t *nestedTable) deltaSince(cp [][]int, dst []DeltaCell) []DeltaCell {
	for s, row := range t.visits {
		for a, n := range row {
			if grew := n - cp[s][a]; grew > 0 {
				dst = append(dst, DeltaCell{State: s, Action: a, Value: t.vals[s][a], Visits: grew})
			}
		}
	}
	return dst
}

func (t *nestedTable) absorb(vals [][]float64, visits [][]int) {
	for s := range t.vals {
		copy(t.vals[s], vals[s])
		copy(t.visits[s], visits[s])
	}
}

func (t *nestedTable) save() []byte {
	snap := tableSnapshot{Version: snapshotVersion, Values: t.vals, Visits: t.visits}
	for _, a := range t.actions {
		snap.Actions = append(snap.Actions, actionSnapshot{NBig: a.NBig, NSmall: a.NSmall, BigFreq: int(a.BigFreq)})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(snap); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (t *nestedTable) load(data []byte) {
	var snap tableSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		panic(err)
	}
	t.absorb(snap.Values, snap.Visits)
}

// flatten lays a nested matrix out row-major.
func flatten[E any](m [][]E) []E {
	var out []E
	for _, row := range m {
		out = append(out, row...)
	}
	return out
}

// sameTable compares every cell's value (bit for bit) and visit count,
// every state's Best, MaxValue and StateVisits, and both snapshots.
func sameTable(tab *Table, ref *nestedTable) error {
	if tab.NumStates() != len(ref.vals) || tab.NumActions() != len(ref.actions) {
		return fmt.Errorf("shape %dx%d, reference %dx%d", tab.NumStates(), tab.NumActions(), len(ref.vals), len(ref.actions))
	}
	for s := range ref.vals {
		n := 0
		for a := range ref.vals[s] {
			if math.Float64bits(tab.Value(s, a)) != math.Float64bits(ref.vals[s][a]) {
				return fmt.Errorf("Value(%d,%d) = %v, reference %v", s, a, tab.Value(s, a), ref.vals[s][a])
			}
			if tab.Visits(s, a) != ref.visits[s][a] {
				return fmt.Errorf("Visits(%d,%d) = %d, reference %d", s, a, tab.Visits(s, a), ref.visits[s][a])
			}
			n += ref.visits[s][a]
		}
		if b := ref.best(s); tab.Best(s) != b || tab.MaxValue(s) != ref.vals[s][b] {
			return fmt.Errorf("state %d: Best %d MaxValue %v, reference %d and %v", s, tab.Best(s), tab.MaxValue(s), b, ref.vals[s][b])
		}
		if tab.StateVisits(s) != n {
			return fmt.Errorf("StateVisits(%d) = %d, reference %d", s, tab.StateVisits(s), n)
		}
	}
	if !reflect.DeepEqual(tab.Snapshot(), ref.vals) || !reflect.DeepEqual(tab.VisitsSnapshot(), ref.visits) {
		return fmt.Errorf("snapshots differ from the reference matrices")
	}
	return nil
}

// TestFlatTableMatchesNested drives the flat table and the nested
// reference through the same seeded sequences of updates, checkpoints
// (fresh and re-captured in place), delta extractions into a reused
// buffer, absorbs and Save/Load round trips, on three shapes including
// the 21-bucket, 13-action shape a HipsterIn manager uses. After every
// step both tables must agree on every value, visit count, Best and
// snapshot; every delta must list the same cells in the same order;
// and Save must write the same bytes.
func TestFlatTableMatchesNested(t *testing.T) {
	juno := platform.Configs(platform.JunoR1())
	shapes := []struct {
		states  int
		actions []platform.Config
	}{{21, juno}, {5, actions()}, {12, juno[:7]}}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%dx%d/seed%d", sh.states, len(sh.actions), seed)
			rng := rand.New(rand.NewSource(seed))
			tab, err := NewTable(sh.states, sh.actions)
			if err != nil {
				t.Fatal(err)
			}
			ref := newNestedTable(sh.states, sh.actions)
			cp, refCP := tab.Checkpoint(), ref.checkpoint()
			var got, want []DeltaCell
			nA := len(sh.actions)
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(20); {
				case op < 13:
					s, a, next := rng.Intn(sh.states), rng.Intn(nA), rng.Intn(sh.states)
					reward, alpha, gamma := 4*rng.NormFloat64(), rng.Float64(), rng.Float64()
					tab.Update(s, a, next, reward, alpha, gamma)
					ref.update(s, a, next, reward, alpha, gamma)
				case op < 15:
					if op == 13 {
						cp = tab.Checkpoint()
					} else {
						tab.CheckpointInto(&cp)
					}
					refCP = ref.checkpoint()
				case op < 17:
					held := len(got)
					if got, err = tab.DeltaSince(cp, got); err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
					want = ref.deltaSince(refCP, want)
					if !slices.Equal(got, want) {
						t.Fatalf("%s step %d: delta %+v, reference %+v", name, step, got[held:], want[held:])
					}
					if rng.Intn(2) == 0 {
						got, want = got[:0], want[:0]
					}
				case op == 17:
					vals, visits := make([][]float64, sh.states), make([][]int, sh.states)
					for s := range vals {
						vals[s], visits[s] = make([]float64, nA), make([]int, nA)
						for a := range vals[s] {
							vals[s][a], visits[s][a] = rng.NormFloat64(), rng.Intn(50)
						}
					}
					if err := tab.Absorb(flatten(vals), flatten(visits)); err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
					ref.absorb(vals, visits)
				default:
					var buf bytes.Buffer
					if err := tab.Save(&buf); err != nil {
						t.Fatal(err)
					}
					saved := ref.save()
					if !bytes.Equal(buf.Bytes(), saved) {
						t.Fatalf("%s step %d: Save wrote\n%s\nreference\n%s", name, step, buf.Bytes(), saved)
					}
					// Each side reloads what the other wrote, into a
					// fresh table for the flat side.
					if tab, err = NewTable(sh.states, sh.actions); err != nil {
						t.Fatal(err)
					}
					if err := tab.Load(bytes.NewReader(saved)); err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
					ref.load(buf.Bytes())
				}
				if err := sameTable(tab, ref); err != nil {
					t.Fatalf("%s step %d: %v", name, step, err)
				}
			}
		}
	}
}
