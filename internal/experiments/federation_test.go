package experiments

import (
	"testing"

	"hipster/internal/platform"
	"hipster/internal/telemetry"
)

// TestFederationConvergesFaster is the tentpole acceptance test: on one
// seed, a 4-node federated fleet must reach (and hold) the QoS-
// attainment threshold in strictly fewer intervals than the identical
// fleet of 4 independent learners, and must end the run with higher
// overall attainment.
func TestFederationConvergesFaster(t *testing.T) {
	spec := platform.JunoR1()
	res, err := FederationConvergence(spec)
	if err != nil {
		t.Fatal(err)
	}

	fed, ind := res.Federated, res.Independent
	if fed.ConvergedAt < 0 {
		t.Fatal("federated fleet never converged")
	}
	if ind.ConvergedAt >= 0 && fed.ConvergedAt >= ind.ConvergedAt {
		t.Fatalf("federated fleet converged at interval %d, independent at %d: want strictly fewer",
			fed.ConvergedAt, ind.ConvergedAt)
	}
	if fed.QoSAttainment <= ind.QoSAttainment {
		t.Fatalf("federated attainment %.4f not above independent %.4f",
			fed.QoSAttainment, ind.QoSAttainment)
	}

	// The comparison must really have run a federation: one sync round
	// every 5 of the 1440 intervals, with all 4 nodes reporting each
	// round.
	wantRounds := 1440 / 5
	if fed.Stats.Rounds != wantRounds {
		t.Fatalf("sync rounds = %d, want %d", fed.Stats.Rounds, wantRounds)
	}
	if fed.Stats.Reports != wantRounds*4 {
		t.Fatalf("reports = %d, want %d", fed.Stats.Reports, wantRounds*4)
	}
	if fed.Stats.MergedVisits == 0 || fed.Stats.MergedCells == 0 {
		t.Fatalf("nothing merged: %+v", fed.Stats)
	}
	if ind.Stats.Rounds != 0 || ind.Stats.Reports != 0 {
		t.Fatalf("independent fleet reported federation stats: %+v", ind.Stats)
	}
}

func TestConvergedAt(t *testing.T) {
	trace := func(attained ...int) *telemetry.FleetTrace {
		ft := &telemetry.FleetTrace{}
		for _, met := range attained {
			ft.Add(telemetry.FleetSample{Nodes: 4, QoSMet: met})
		}
		return ft
	}

	// Perfect run: converges as soon as one full window exists.
	if got := convergedAt(trace(4, 4, 4, 4, 4), 1.0, 3); got != 3 {
		t.Fatalf("perfect run converged at %d, want 3", got)
	}
	// A late dip delays convergence past it.
	if got := convergedAt(trace(4, 4, 4, 4, 0, 4, 4, 4), 1.0, 3); got != 8 {
		t.Fatalf("dipped run converged at %d, want 8", got)
	}
	// Never reaching the threshold reports -1.
	if got := convergedAt(trace(2, 2, 2, 2), 0.9, 3); got != -1 {
		t.Fatalf("unconverged run reported %d", got)
	}
	// A run shorter than the window cannot converge.
	if got := convergedAt(trace(4, 4), 1.0, 3); got != -1 {
		t.Fatalf("short run reported %d", got)
	}
	// Sub-threshold tolerance: 0.75 attainment with threshold 0.75.
	if got := convergedAt(trace(3, 3, 3, 3), 0.75, 2); got != 2 {
		t.Fatalf("tolerant run converged at %d, want 2", got)
	}
}
