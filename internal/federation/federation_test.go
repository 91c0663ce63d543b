package federation

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hipster/internal/platform"
	"hipster/internal/rl"
)

func coordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// syncTable runs one merge round and returns the fleet table after it.
func syncTable(t *testing.T, c *Coordinator, interval int, reports []Report) Broadcast {
	t.Helper()
	if err := c.Sync(interval, reports); err != nil {
		t.Fatal(err)
	}
	return c.Table()
}

func cell(s, a int, v float64, n int) rl.DeltaCell {
	return rl.DeltaCell{State: s, Action: a, Value: v, Visits: n}
}

func TestNewValidation(t *testing.T) {
	base := Config{Nodes: 2, States: 3, Actions: 2}
	bad := []Config{
		{Nodes: 0, States: 3, Actions: 2},
		{Nodes: 2, States: 0, Actions: 2},
		{Nodes: 2, States: 3, Actions: 0},
		{Nodes: 2, States: 3, Actions: 2, StalenessBound: -1},
		{Nodes: 2, States: 3, Actions: 2, Merge: MergePolicy(99)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(base); err != nil {
		t.Fatal(err)
	}
}

func TestMergePolicyNames(t *testing.T) {
	for _, p := range []MergePolicy{VisitWeighted, MaxConfidence, NewestWins} {
		got, err := MergePolicyByName(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip %v: got %v, err %v", p, got, err)
		}
	}
	if _, err := MergePolicyByName("nope"); err == nil {
		t.Fatal("want error for unknown policy name")
	}
}

func TestVisitWeightedMerge(t *testing.T) {
	c := coordinator(t, Config{Nodes: 2, States: 2, Actions: 2})
	// Node 0 reports 3 visits at value 2, node 1 reports 1 visit at
	// value 6: the fleet value is the visit-weighted mean 3.
	bc := syncTable(t, c, 10, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 1, 2, 3)}}},
		{Node: 1, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 1, 6, 1)}}},
	})
	if got := bc.Values[0][1]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("fleet value = %v, want 3", got)
	}
	if bc.Visits[0][1] != 4 {
		t.Fatalf("fleet visits = %d, want 4", bc.Visits[0][1])
	}

	// A later round folds against the accumulated fleet weight:
	// (4*3 + 4*9)/8 = 6.
	bc = syncTable(t, c, 20, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 1, 9, 4)}}},
	})
	if got := bc.Values[0][1]; math.Abs(got-6) > 1e-12 {
		t.Fatalf("second-round fleet value = %v, want 6", got)
	}
	st := c.Stats()
	if st.Rounds != 2 || st.Reports != 3 || st.MergedCells != 3 || st.MergedVisits != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVisitWeightedOrderIndependent(t *testing.T) {
	reports := []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(1, 0, 2, 5)}}},
		{Node: 1, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(1, 0, -4, 2)}}},
		{Node: 2, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(1, 0, 10, 3)}}},
	}
	fwd := coordinator(t, Config{Nodes: 3, States: 2, Actions: 1})
	a := syncTable(t, fwd, 5, reports)
	rev := coordinator(t, Config{Nodes: 3, States: 2, Actions: 1})
	b := syncTable(t, rev, 5, []Report{reports[2], reports[1], reports[0]})
	if math.Abs(a.Values[1][0]-b.Values[1][0]) > 1e-12 || a.Visits[1][0] != b.Visits[1][0] {
		t.Fatalf("visit-weighted merge depends on report order: %v vs %v", a.Values[1][0], b.Values[1][0])
	}
}

func TestMaxConfidenceMerge(t *testing.T) {
	c := coordinator(t, Config{Nodes: 3, States: 1, Actions: 1, Merge: MaxConfidence})
	bc := syncTable(t, c, 10, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 1, 2)}}},
		{Node: 1, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 7, 5)}}},
		{Node: 2, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 3, 5)}}}, // tie: earlier reporter keeps the cell
	})
	if bc.Values[0][0] != 7 {
		t.Fatalf("max-confidence value = %v, want node 1's 7", bc.Values[0][0])
	}
	if bc.Visits[0][0] != 12 {
		t.Fatalf("fleet visits = %d, want all 12 accumulated", bc.Visits[0][0])
	}

	// The round scratch resets: a small next-round report still wins
	// its round even though the fleet count is now large.
	bc = syncTable(t, c, 20, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, -2, 1)}}},
	})
	if bc.Values[0][0] != -2 {
		t.Fatalf("second-round value = %v, want -2", bc.Values[0][0])
	}
}

func TestNewestWinsMerge(t *testing.T) {
	c := coordinator(t, Config{Nodes: 2, States: 1, Actions: 1, Merge: NewestWins})
	bc := syncTable(t, c, 10, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 1, 100)}}},
		{Node: 1, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 9, 1)}}},
	})
	if bc.Values[0][0] != 9 {
		t.Fatalf("newest-wins value = %v, want the last reporter's 9", bc.Values[0][0])
	}
}

func TestStalenessBoundDiscards(t *testing.T) {
	c := coordinator(t, Config{Nodes: 2, States: 1, Actions: 1, StalenessBound: 10})
	// Node 0 syncs on time; node 1 first reports at interval 25, so its
	// delta spans 25 > 10 intervals and is discarded.
	if err := c.Sync(10, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 4, 2)}}},
	}); err != nil {
		t.Fatal(err)
	}
	bc := syncTable(t, c, 25, []Report{
		{Node: 1, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 100, 50)}}},
	})
	if bc.Values[0][0] != 4 || bc.Visits[0][0] != 2 {
		t.Fatalf("stale delta merged: value %v visits %d", bc.Values[0][0], bc.Visits[0][0])
	}
	if st := c.Stats(); st.StaleDropped != 1 {
		t.Fatalf("StaleDropped = %d, want 1", st.StaleDropped)
	}

	// The discard reset node 1's sync clock: a report 10 intervals
	// later is fresh again.
	bc = syncTable(t, c, 35, []Report{
		{Node: 1, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 10, 2)}}},
	})
	if got := bc.Values[0][0]; math.Abs(got-7) > 1e-12 {
		t.Fatalf("post-reset merge = %v, want (2*4+2*10)/4 = 7", got)
	}
}

func TestSyncValidation(t *testing.T) {
	c := coordinator(t, Config{Nodes: 2, States: 2, Actions: 2})
	if err := c.Sync(5, []Report{{Node: 7}}); err == nil {
		t.Fatal("want error for unknown node")
	}
	c = coordinator(t, Config{Nodes: 2, States: 2, Actions: 2})
	if err := c.Sync(5, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(5, 0, 1, 1)}}},
	}); err == nil {
		t.Fatal("want error for out-of-range cell")
	}
	c = coordinator(t, Config{Nodes: 2, States: 2, Actions: 2})
	if err := c.Sync(5, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 1, 0)}}},
	}); err == nil {
		t.Fatal("want error for zero-visit cell")
	}
	c = coordinator(t, Config{Nodes: 2, States: 2, Actions: 2})
	if err := c.Sync(5, []Report{{Node: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(3, []Report{{Node: 0}}); err == nil {
		t.Fatal("want error for a report older than the node's last sync")
	}
}

// TestBroadcastIsCopy pins that the fleet table never leaves the
// coordinator by reference: Table returns matrices the caller may
// overwrite, and BroadcastTo copies into a node's table, which then
// learns on without moving the fleet table.
func TestBroadcastIsCopy(t *testing.T) {
	c := coordinator(t, Config{Nodes: 1, States: 1, Actions: 1})
	bc := syncTable(t, c, 1, []Report{
		{Node: 0, Delta: rl.Delta{Cells: []rl.DeltaCell{cell(0, 0, 5, 1)}}},
	})
	bc.Values[0][0] = 999
	bc.Visits[0][0] = 999
	if got := c.Table(); got.Values[0][0] != 5 || got.Visits[0][0] != 1 {
		t.Fatalf("Table aliases coordinator state: %+v", got)
	}

	tab, err := rl.NewTable(1, []platform.Config{{NBig: 1, BigFreq: 1100}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BroadcastTo(tab); err != nil {
		t.Fatal(err)
	}
	if tab.Value(0, 0) != 5 || tab.Visits(0, 0) != 1 {
		t.Fatalf("BroadcastTo gave value %v visits %d, want 5 and 1", tab.Value(0, 0), tab.Visits(0, 0))
	}
	tab.Update(0, 0, 0, 100, 1, 0)
	if got := c.Table(); got.Values[0][0] != 5 || got.Visits[0][0] != 1 {
		t.Fatalf("a node's update after BroadcastTo moved the fleet table: %+v", got)
	}
	if err := c.BroadcastTo(&rl.Table{}); err == nil {
		t.Fatal("BroadcastTo accepted a table of another shape")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Broadcast {
		c := coordinator(t, Config{Nodes: 3, States: 4, Actions: 3, Merge: MaxConfidence, StalenessBound: 20})
		for round := 1; round <= 5; round++ {
			var reports []Report
			for n := 0; n < 3; n++ {
				if (round+n)%3 == 0 {
					continue // this node skips the round
				}
				reports = append(reports, Report{Node: n, Delta: rl.Delta{Cells: []rl.DeltaCell{
					cell(round%4, n%3, float64(round*10+n), round+n),
				}}})
			}
			if err := c.Sync(round*10, reports); err != nil {
				t.Fatal(err)
			}
		}
		return c.Table()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical report sequences produced different fleet tables")
	}
}

// nestedFleet is the coordinator's merge written over nested rows, one
// value, visit and round-maximum row per state: the reference the flat
// fleet table is pinned to.
type nestedFleet struct {
	merge    MergePolicy
	vals     [][]float64
	visits   [][]int
	roundMax [][]int
}

func newNestedFleet(merge MergePolicy, states, actions int) *nestedFleet {
	n := &nestedFleet{merge: merge}
	for s := 0; s < states; s++ {
		n.vals = append(n.vals, make([]float64, actions))
		n.visits = append(n.visits, make([]int, actions))
		n.roundMax = append(n.roundMax, make([]int, actions))
	}
	return n
}

func (n *nestedFleet) sync(reports []Report) {
	for s := range n.roundMax {
		for a := range n.roundMax[s] {
			n.roundMax[s][a] = 0
		}
	}
	for _, r := range reports {
		for _, cell := range r.Delta.Cells {
			s, a := cell.State, cell.Action
			have := n.visits[s][a]
			switch n.merge {
			case MaxConfidence:
				if cell.Visits > n.roundMax[s][a] {
					n.vals[s][a] = cell.Value
					n.roundMax[s][a] = cell.Visits
				}
			case NewestWins:
				n.vals[s][a] = cell.Value
			default:
				total := have + cell.Visits
				n.vals[s][a] = (float64(have)*n.vals[s][a] + float64(cell.Visits)*cell.Value) / float64(total)
			}
			n.visits[s][a] += cell.Visits
		}
	}
}

// TestFlatMergeMatchesNested runs seeded merge rounds under every
// policy, on the 21x13 HipsterIn table shape and a small one, against
// the nested reference: after each round the fleet table, and a node
// table it was broadcast to, must equal the reference bit for bit.
// Reports overlap on cells, so MaxConfidence ties and NewestWins
// overwrites are exercised.
func TestFlatMergeMatchesNested(t *testing.T) {
	junoLadder := platform.Configs(platform.JunoR1())
	shapes := []struct{ states, actions int }{{21, len(junoLadder)}, {3, 2}}
	for _, policy := range []MergePolicy{VisitWeighted, MaxConfidence, NewestWins} {
		for _, sh := range shapes {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := coordinator(t, Config{Nodes: 4, States: sh.states, Actions: sh.actions, Merge: policy})
				ref := newNestedFleet(policy, sh.states, sh.actions)
				tab, err := rl.NewTable(sh.states, junoLadder[:sh.actions])
				if err != nil {
					t.Fatal(err)
				}
				for round := 1; round <= 30; round++ {
					var reports []Report
					for node := 0; node < 4; node++ {
						if rng.Intn(4) == 0 {
							continue
						}
						var cells []rl.DeltaCell
						for i := 0; i < sh.states*sh.actions; i++ {
							if rng.Intn(3) == 0 {
								cells = append(cells, cell(i/sh.actions, i%sh.actions, 5*rng.NormFloat64(), 1+rng.Intn(4)))
							}
						}
						reports = append(reports, Report{Node: node, Delta: rl.Delta{Cells: cells}})
					}
					if err := c.Sync(round, reports); err != nil {
						t.Fatal(err)
					}
					ref.sync(reports)
					if got := c.Table(); !reflect.DeepEqual(got, Broadcast{Values: ref.vals, Visits: ref.visits}) {
						t.Fatalf("%v %dx%d seed %d round %d: fleet table differs from the nested reference", policy, sh.states, sh.actions, seed, round)
					}
					if err := c.BroadcastTo(tab); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(tab.Snapshot(), ref.vals) || !reflect.DeepEqual(tab.VisitsSnapshot(), ref.visits) {
						t.Fatalf("%v %dx%d seed %d round %d: broadcast table differs from the nested reference", policy, sh.states, sh.actions, seed, round)
					}
				}
			}
		}
	}
}
