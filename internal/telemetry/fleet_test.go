package telemetry

import (
	"math"
	"testing"
)

func nodeSample(t, tail, target, power, energy, offered float64) Sample {
	return Sample{
		T:           t,
		TailLatency: tail,
		Target:      target,
		BigW:        power,
		EnergyJ:     energy,
		OfferedRPS:  offered,
		AchievedRPS: offered,
	}
}

func TestMergeInterval(t *testing.T) {
	samples := []Sample{
		nodeSample(1, 0.008, 0.010, 2, 2, 100),
		nodeSample(1, 0.009, 0.010, 3, 3, 200),
		nodeSample(1, 0.030, 0.010, 4, 4, 300), // violator and straggler
		nodeSample(1, 0.010, 0.010, 5, 5, 400),
	}
	var m Merger
	fs := m.MergeInterval(samples)

	if fs.Nodes != 4 || fs.T != 1 {
		t.Fatalf("shape: %+v", fs)
	}
	if fs.QoSMet != 3 {
		t.Fatalf("QoSMet = %d, want 3", fs.QoSMet)
	}
	if got := fs.QoSAttainment(); got != 0.75 {
		t.Fatalf("attainment = %v", got)
	}
	// Median tail is (0.009+0.010)/2 = 0.0095; only the 0.030 node
	// exceeds 1.5x that.
	if math.Abs(fs.MedianTail-0.0095) > 1e-12 {
		t.Fatalf("median tail = %v", fs.MedianTail)
	}
	if fs.Stragglers != 1 {
		t.Fatalf("stragglers = %d, want 1", fs.Stragglers)
	}
	if fs.WorstTail != 0.030 {
		t.Fatalf("worst tail = %v", fs.WorstTail)
	}
	if fs.MaxTardiness != 3 {
		t.Fatalf("max tardiness = %v", fs.MaxTardiness)
	}
	if fs.PowerW != 14 || fs.EnergyJ != 14 {
		t.Fatalf("power/energy: %+v", fs)
	}
	if fs.OfferedRPS != 1000 || fs.AchievedRPS != 1000 {
		t.Fatalf("throughput: %+v", fs)
	}
}

func TestMergeIntervalEmpty(t *testing.T) {
	var m Merger
	fs := m.MergeInterval(nil)
	if fs.Nodes != 0 || fs.Stragglers != 0 || fs.QoSAttainment() != 0 {
		t.Fatalf("empty merge: %+v", fs)
	}
}

func TestMergeIntervalSingleNodeHasNoStragglers(t *testing.T) {
	var m Merger
	fs := m.MergeInterval([]Sample{nodeSample(1, 0.5, 0.01, 1, 1, 10)})
	if fs.Stragglers != 0 {
		t.Fatalf("a lone node cannot straggle behind itself: %+v", fs)
	}
	if fs.QoSMet != 0 {
		t.Fatalf("QoSMet = %d", fs.QoSMet)
	}
}

func TestFleetTraceAggregates(t *testing.T) {
	ft := &FleetTrace{}
	var m Merger
	ft.Add(m.MergeInterval([]Sample{
		nodeSample(1, 0.008, 0.010, 2, 2, 100),
		nodeSample(1, 0.030, 0.010, 2, 2, 100),
	}))
	ft.Add(m.MergeInterval([]Sample{
		nodeSample(2, 0.008, 0.010, 4, 6, 200),
		nodeSample(2, 0.009, 0.010, 4, 6, 200),
	}))

	if ft.Len() != 2 {
		t.Fatalf("len = %d", ft.Len())
	}
	if got := ft.QoSAttainment(); got != 0.75 {
		t.Fatalf("attainment = %v", got)
	}
	if got := ft.TotalEnergyJ(); got != 12 {
		t.Fatalf("energy = %v", got)
	}
	if got := ft.MeanPowerW(); got != 6 {
		t.Fatalf("mean power = %v", got)
	}
	if sum := ft.Summarize(); sum.TotalStragglers != 1 || sum.PeakStragglers != 1 {
		t.Fatalf("stragglers: %d/%d", sum.TotalStragglers, sum.PeakStragglers)
	}
	sum := ft.Summarize()
	if sum.Intervals != 2 || sum.Nodes != 2 || sum.QoSAttainment != 0.75 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.MeanOfferedRPS != 300 {
		t.Fatalf("mean offered = %v", sum.MeanOfferedRPS)
	}
	if sum.NodeIntervals != 4 {
		t.Fatalf("node-intervals = %d, want 2 nodes x 2 intervals", sum.NodeIntervals)
	}
}

// TestFleetTraceElasticNodeCount covers an autoscaled run: the active
// node count varies per interval, node-intervals sum it, and the
// summary's Nodes is the peak.
func TestFleetTraceElasticNodeCount(t *testing.T) {
	var ft FleetTrace
	var m Merger
	ft.Add(m.MergeInterval([]Sample{
		nodeSample(1, 0.008, 0.010, 2, 2, 100),
	}))
	ft.Add(m.MergeInterval([]Sample{
		nodeSample(2, 0.008, 0.010, 2, 4, 100),
		nodeSample(2, 0.009, 0.010, 2, 4, 100),
		nodeSample(2, 0.009, 0.010, 2, 4, 100),
	}))
	ft.Add(m.MergeInterval([]Sample{
		nodeSample(3, 0.008, 0.010, 2, 6, 100),
		nodeSample(3, 0.012, 0.010, 2, 6, 100),
	}))

	if got := ft.NodeIntervals(); got != 6 {
		t.Fatalf("node-intervals = %d, want 1+3+2", got)
	}
	sum := ft.Summarize()
	if sum.Nodes != 3 {
		t.Fatalf("summary nodes = %d, want the peak 3", sum.Nodes)
	}
	if sum.NodeIntervals != 6 {
		t.Fatalf("summary node-intervals = %d", sum.NodeIntervals)
	}
	// Attainment is over node-intervals: 5 of 6 met.
	if want := 5.0 / 6.0; math.Abs(sum.QoSAttainment-want) > 1e-12 {
		t.Fatalf("attainment = %v, want %v", sum.QoSAttainment, want)
	}
}
