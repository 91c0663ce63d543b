package rl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestBucketCenterClampsOverflowBucket(t *testing.T) {
	// The last bucket covers >= 100% load and has no upper edge; its
	// naive center (b + 0.5) * frac lands above 1.0 for every width
	// that does not divide 1 exactly — and even for exact divisors,
	// because of the extra overflow bucket.
	cases := []struct {
		frac       float64
		lastCenter float64
	}{
		{0.02, 1.0}, // 51 buckets, naive center 1.01
		{0.05, 1.0}, // 21 buckets, naive center 1.025
		{0.09, 1.0}, // 12 buckets, naive center 1.035
		{0.30, 1.0}, // 5 buckets, naive center 1.35
		{1.00, 1.0}, // 2 buckets, naive center 1.5
	}
	for _, c := range cases {
		q, err := NewQuantizer(c.frac)
		if err != nil {
			t.Fatal(err)
		}
		last := q.NumBuckets() - 1
		if got := q.BucketCenter(last); got != c.lastCenter {
			t.Errorf("frac %v: center of overflow bucket %d = %v, want %v", c.frac, last, got, c.lastCenter)
		}
		// Interior buckets are untouched by the clamp.
		if got, want := q.BucketCenter(0), 0.5*c.frac; math.Abs(got-want) > 1e-12 {
			t.Errorf("frac %v: center of bucket 0 = %v, want %v", c.frac, got, want)
		}
		// The clamped center still quantises to a valid bucket.
		if b := q.Bucket(q.BucketCenter(last)); b < 0 || b >= q.NumBuckets() {
			t.Errorf("frac %v: clamped center maps to out-of-range bucket %d", c.frac, b)
		}
	}
}

func TestCheckpointAndDeltaSince(t *testing.T) {
	tab, err := NewTable(3, actions())
	if err != nil {
		t.Fatal(err)
	}
	tab.Update(0, 1, 0, 4, 1, 0)
	cp := tab.Checkpoint()

	// Nothing new yet.
	d, err := tab.DeltaSince(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || d.TotalVisits() != 0 {
		t.Fatalf("fresh checkpoint yielded delta %+v", d)
	}

	// Two updates to one cell, one to another: the delta carries the
	// current values and per-cell growth, in row-major order.
	tab.Update(0, 1, 0, 8, 1, 0)
	tab.Update(0, 1, 0, 6, 1, 0)
	tab.Update(2, 0, 2, -1, 1, 0)
	d, err = tab.DeltaSince(cp)
	if err != nil {
		t.Fatal(err)
	}
	want := Delta{Cells: []DeltaCell{
		{State: 0, Action: 1, Value: tab.Value(0, 1), Visits: 2},
		{State: 2, Action: 0, Value: tab.Value(2, 0), Visits: 1},
	}}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("delta = %+v, want %+v", d, want)
	}
	if d.TotalVisits() != 3 {
		t.Fatalf("TotalVisits = %d, want 3", d.TotalVisits())
	}

	// The checkpoint is a deep copy: extracting a delta does not move
	// it, and the same diff comes out twice.
	again, err := tab.DeltaSince(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, d) {
		t.Fatal("DeltaSince moved the checkpoint")
	}

	// A table reset (fewer visits than the baseline) yields nothing
	// rather than negative growth.
	fresh, _ := NewTable(3, actions())
	d, err = fresh.DeltaSince(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("reset table yielded delta %+v", d)
	}
}

// TestCheckpointIntoMatchesCheckpoint replays generated update
// histories on tables whose shape changes twice (more states, then
// fewer actions per state): after each round's re-checkpoint and the
// next round's updates, a checkpoint re-captured in place must give the
// same delta as a fresh Checkpoint. A reused checkpoint of another
// shape is replaced, and one that aliased the table would miss every
// later update.
func TestCheckpointIntoMatchesCheckpoint(t *testing.T) {
	shapes := []struct{ states, actions int }{{3, 3}, {6, 3}, {6, 2}}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var reused Checkpoint
		for _, sh := range shapes {
			tab, err := NewTable(sh.states, actions()[:sh.actions])
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 30; round++ {
				fresh := tab.Checkpoint()
				tab.CheckpointInto(&reused)
				for k := rng.Intn(3 * sh.states); k > 0; k-- {
					tab.Update(rng.Intn(sh.states), rng.Intn(sh.actions), rng.Intn(sh.states), rng.NormFloat64(), 0.5, 0.9)
				}
				want, err := tab.DeltaSince(fresh)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tab.DeltaSince(reused)
				if err != nil {
					t.Fatalf("seed %d, %dx%d round %d: %v", seed, sh.states, sh.actions, round, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %dx%d round %d: delta %+v, want %+v", seed, sh.states, sh.actions, round, got, want)
				}
			}
		}
	}
}

// TestCheckpointIntoReusesRows pins that re-checkpointing a table into
// its previous checkpoint allocates nothing.
func TestCheckpointIntoReusesRows(t *testing.T) {
	tab, err := NewTable(16, actions())
	if err != nil {
		t.Fatal(err)
	}
	cp := tab.Checkpoint()
	s := 0
	allocs := testing.AllocsPerRun(100, func() {
		tab.Update(s%16, s%3, (s+1)%16, 1, 0.5, 0.9)
		s++
		tab.CheckpointInto(&cp)
	})
	if allocs != 0 {
		t.Errorf("CheckpointInto allocates %v times per call, want 0", allocs)
	}
}

func TestDeltaSinceShapeMismatch(t *testing.T) {
	small, _ := NewTable(2, actions())
	big, _ := NewTable(3, actions())
	if _, err := big.DeltaSince(small.Checkpoint()); err == nil {
		t.Fatal("want error for mismatched checkpoint shape")
	}
}

func TestAbsorbOverwritesTable(t *testing.T) {
	tab, _ := NewTable(2, actions())
	tab.Update(0, 0, 0, 100, 1, 0)

	vals := [][]float64{{1, 2, 3}, {4, 5, 6}}
	visits := [][]int{{1, 0, 2}, {0, 3, 0}}
	if err := tab.Absorb(vals, visits); err != nil {
		t.Fatal(err)
	}
	if tab.Value(1, 1) != 5 || tab.Visits(1, 1) != 3 || tab.Value(0, 0) != 1 {
		t.Fatal("absorb did not overwrite the table")
	}
	// The table copies; mutating the broadcast afterwards is safe.
	vals[0][0] = -9
	visits[0][0] = 99
	if tab.Value(0, 0) != 1 || tab.Visits(0, 0) != 1 {
		t.Fatal("absorb aliases the caller's matrices")
	}

	if err := tab.Absorb(vals[:1], visits[:1]); err == nil {
		t.Fatal("want error for wrong state count")
	}
	if err := tab.Absorb([][]float64{{1}, {2}}, [][]int{{1}, {2}}); err == nil {
		t.Fatal("want error for wrong action count")
	}
}

func TestVisitsSnapshotIsCopy(t *testing.T) {
	tab, _ := NewTable(2, actions())
	tab.Update(0, 0, 0, 1, 1, 0)
	snap := tab.VisitsSnapshot()
	if snap[0][0] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	snap[0][0] = 42
	if tab.Visits(0, 0) != 1 {
		t.Fatal("snapshot aliases table")
	}
}
