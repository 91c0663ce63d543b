package cluster

import (
	"reflect"
	"slices"
	"testing"

	"hipster/internal/core"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/rl"
	"hipster/internal/telemetry"
)

// reservedCap is the capacity one reserve of k more samples gives a
// trace of the given length and capacity (slices.Grow rounds it to the
// allocator's size class).
func reservedCap[S any](n, c, k int) int { return cap(slices.Grow(make([]S, n, c), k)) }

// TestRunReservesTracesBelowTheFloor pins the interval-mode trace
// reserve on an elastic, federated fleet over the 1440-s day. The fleet
// trace and the trace of every node below the scaler's minimum record
// one sample per interval, so Run(60) leaves each with exactly the
// storage one reserve of 60 intervals gives, never the day's: Run
// reserves the horizon it was handed. A continued Run(120) reserves its
// 60 further intervals once more. A twin stepped by hand has no
// horizon from its caller and reserves the pattern's whole day at its
// first Step, and records the same samples. Nodes above the floor join
// late and are never reserved.
func TestRunReservesTracesBelowTheFloor(t *testing.T) {
	const floor = 2
	build := func() *Cluster {
		cl, err := New(Options{
			Nodes:      testFleet(t, 4, 3),
			Pattern:    loadgen.DefaultDiurnal(),
			Workers:    2,
			Seed:       3,
			Federation: &FederationOptions{SyncEvery: 10},
			Autoscale: &AutoscaleOptions{
				Policy: scriptedScale{script: func(i int) int {
					if i >= 10 && i < 20 {
						return 4
					}
					return floor
				}},
				MinNodes:           floor,
				CooldownIntervals:  1,
				DownAfterIntervals: 1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	// check reports every trace below the floor whose length is not n
	// or whose capacity is not nodeCap (fleetCap for the fleet trace),
	// and every trace above the floor that is as long or as large.
	check := func(what string, cl *Cluster, n, fleetCap, nodeCap int) {
		t.Helper()
		fleet := cl.Fleet().Samples
		if len(fleet) != n || cap(fleet) != fleetCap {
			t.Errorf("%s: fleet trace len %d cap %d, want len %d cap %d", what, len(fleet), cap(fleet), n, fleetCap)
		}
		for i := range cl.NumNodes() {
			s := cl.NodeTrace(i).Samples
			switch {
			case i < floor && (len(s) != n || cap(s) != nodeCap):
				t.Errorf("%s: node %d below the floor: len %d cap %d, want len %d cap %d", what, i, len(s), cap(s), n, nodeCap)
			case i >= floor && (len(s) >= n || cap(s) >= nodeCap):
				t.Errorf("%s: node %d above the floor: len %d cap %d, want fewer than %d samples in less than the reserve", what, i, len(s), cap(s), n)
			}
		}
	}

	cl := build()
	if _, err := cl.Run(60); err != nil {
		t.Fatal(err)
	}
	if st, _ := cl.AutoscaleStats(); st.Ups == 0 {
		t.Fatal("the fleet never scaled above its floor")
	}
	fleet60, node60 := reservedCap[telemetry.FleetSample](0, 0, 60), reservedCap[telemetry.Sample](0, 0, 60)
	fleetDay, nodeDay := reservedCap[telemetry.FleetSample](0, 0, 1440), reservedCap[telemetry.Sample](0, 0, 1440)
	if node60 >= nodeDay {
		t.Fatal("a 60-interval reserve is no smaller than the day's; the check cannot tell them apart")
	}
	check("Run(60)", cl, 60, fleet60, node60)

	if _, err := cl.Run(120); err != nil {
		t.Fatal(err)
	}
	check("continued Run(120)", cl, 120,
		reservedCap[telemetry.FleetSample](60, fleet60, 60), reservedCap[telemetry.Sample](60, node60, 60))

	twin := build()
	for range 60 {
		if _, err := twin.Step(); err != nil {
			t.Fatal(err)
		}
	}
	check("60 hand steps", twin, 60, fleetDay, nodeDay)
	if !reflect.DeepEqual(twin.Fleet().Samples, cl.Fleet().Samples[:60]) {
		t.Error("the hand-stepped twin recorded other fleet samples than Run")
	}
	for i := range twin.NumNodes() {
		want := cl.NodeTrace(i).Samples
		got := twin.NodeTrace(i).Samples
		if !reflect.DeepEqual(got, want[:len(got)]) {
			t.Errorf("the hand-stepped twin recorded other samples for node %d than Run", i)
		}
	}
}

// TestFederationRoundAllocatesNothing pins that once its buffers have
// grown to a round's size, a sync round, a warm start and a flush
// allocate nothing: every node's delta lands in one reused cell
// buffer, the reports slice is reused, checkpoints are re-captured in
// place, and the fleet table is copied straight from the coordinator
// into each node's table. Every call follows fresh learning on every
// table, so each delta is non-empty and the merge runs. Allocation
// counts from a race-detector build say nothing about the normal one,
// so the test skips there.
func TestFederationRoundAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates differently")
	}
	const n = 4
	pols := make([]policy.Policy, n)
	tabs := make([]*rl.Table, n)
	for i := range pols {
		m, err := core.New(core.In, platform.JunoR1(), core.DefaultParams(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		pols[i], tabs[i] = m, m.LiveTable()
	}
	fed, err := NewFederation(FederationOptions{SyncEvery: 1}, pols)
	if err != nil {
		t.Fatal(err)
	}
	// learn moves the fleet on one interval and updates eight distinct
	// cells of every table, so each delta holds eight cells.
	interval := 0
	learn := func() {
		interval++
		for i, tab := range tabs {
			for k := range 8 {
				s := (interval + k + i) % tab.NumStates()
				tab.Update(s, k%tab.NumActions(), s, float64(k), 0.5, 0.9)
			}
		}
	}
	all := func(int) bool { return true }
	calls := []struct {
		name string
		call func() error
	}{
		{"Sync", func() error { return fed.Sync(interval, all) }},
		{"WarmStart", func() error {
			warmed, err := fed.WarmStart(interval%n, interval)
			if err == nil && !warmed {
				t.Fatal("a federated node was not warm-started")
			}
			return err
		}},
		{"Flush", func() error {
			flushed, err := fed.Flush(interval%n, interval)
			if err == nil && !flushed {
				t.Fatal("a node with fresh learning flushed nothing")
			}
			return err
		}},
	}
	for _, c := range calls {
		step := func() {
			learn()
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		step() // the warm-up round grows the buffers
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Errorf("%s allocates %v times per call after a warm-up, want 0", c.name, allocs)
		}
	}
	if st := fed.Stats(); st.MergedCells == 0 {
		t.Fatal("no delta was merged")
	}
}
