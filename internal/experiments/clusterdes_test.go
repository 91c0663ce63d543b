package experiments

import "testing"

// shortDES shrinks the horizons so the experiment tests stay fast while
// still exercising several burst cycles.
func shortDES() ClusterDESOpts { return ClusterDESOpts{Horizon: 120} }

func TestHedgingTailImproves(t *testing.T) {
	rows, err := HedgingTail(shortDES())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want one per mitigation", len(rows))
	}
	byName := map[string]HedgingTailRow{}
	for _, r := range rows {
		byName[r.Mitigation] = r
	}
	base, ok := byName["none"]
	if !ok {
		t.Fatal("no unmitigated baseline row")
	}
	if base.Completed == 0 {
		t.Fatal("baseline completed nothing")
	}
	for _, name := range []string{"hedged", "work-stealing"} {
		r := byName[name]
		if r.P99 >= base.P99 {
			t.Errorf("%s P99 %.4fs did not improve on baseline %.4fs", name, r.P99, base.P99)
		}
		if r.Stragglers >= base.Stragglers {
			t.Errorf("%s stragglers %d not below baseline %d", name, r.Stragglers, base.Stragglers)
		}
	}
	if h := byName["hedged"]; h.Hedges == 0 || h.HedgeWins == 0 {
		t.Errorf("hedged row shows no hedge activity: %+v", h)
	}
	if s := byName["work-stealing"]; s.Steals == 0 {
		t.Errorf("work-stealing row shows no steals: %+v", s)
	}
}

func TestHedgingTailDeterministic(t *testing.T) {
	a, err := HedgingTail(shortDES())
	if err != nil {
		t.Fatal(err)
	}
	b, err := HedgingTail(shortDES())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestWarmupSignalQueueLeadsTail(t *testing.T) {
	res, err := WarmupSignal()
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueFirstScaleUp < 0 || res.TailFirstScaleUp < 0 {
		t.Fatalf("a signal never scaled: %+v", res)
	}
	// The acceptance property: the queue-depth signal wakes a node
	// before the tail-violation signal does on the bursty day.
	if res.QueueFirstScaleUp >= res.TailFirstScaleUp {
		t.Errorf("queue signal first scale-up at interval %d, not before tail signal's %d",
			res.QueueFirstScaleUp, res.TailFirstScaleUp)
	}
	if res.QueueQoS <= res.TailQoS {
		t.Errorf("queue signal QoS %.4f not above tail signal's %.4f", res.QueueQoS, res.TailQoS)
	}
}
