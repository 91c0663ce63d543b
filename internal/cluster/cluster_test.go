package cluster

import (
	"math"
	"testing"

	"hipster/internal/batch"
	"hipster/internal/core"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/workload"
)

func testFleet(t testing.TB, n int, seed int64) []NodeOptions {
	t.Helper()
	spec := platform.JunoR1()
	nodes, err := Uniform(n, spec, workload.Memcached(), func(nodeID int) (policy.Policy, error) {
		return core.New(core.In, spec, core.DefaultParams(), seed+int64(nodeID))
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func runFleet(t testing.TB, workers int, seed int64, sp Splitter, horizon float64) Result {
	t.Helper()
	cl, err := New(Options{
		Nodes:    testFleet(t, 16, seed),
		Pattern:  loadgen.DefaultDiurnal(),
		Splitter: sp,
		Workers:  workers,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Worker-invariance and seed-determinism are asserted through the
// shared internal/fleettest harness in invariance_test.go, over every
// coordinator feature combination (plain, federated, autoscaled, both).

// TestClusterRunRace exercises the worker pool under the race detector:
// the CI race job runs this package with -race, so any unsynchronised
// sharing between node-stepping goroutines fails there.
func TestClusterRunRace(t *testing.T) {
	res := runFleet(t, 8, 7, WeightedByCapacity{}, 60)
	if res.Fleet.Len() != 60 {
		t.Fatalf("fleet intervals = %d", res.Fleet.Len())
	}
}

// TestWorkerPoolLifecycle drives the persistent worker pool through its
// full lifecycle: Step starts it lazily, Close retires it (idempotently,
// also on a never-parallelised cluster), stepping a closed cluster
// restarts it, and Run closes it on return — with results identical to
// an uninterrupted run throughout.
func TestWorkerPoolLifecycle(t *testing.T) {
	build := func() *Cluster {
		cl, err := New(Options{
			Nodes:    testFleet(t, 8, 3),
			Pattern:  loadgen.DefaultDiurnal(),
			Splitter: WeightedByCapacity{},
			Workers:  4,
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	ref, err := build().Run(30)
	if err != nil {
		t.Fatal(err)
	}

	cl := build()
	cl.Close() // close before any Step: must be a no-op
	for i := 0; i < 10; i++ {
		if _, err := cl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if cl.pool == nil {
		t.Fatal("parallel Step did not start the worker pool")
	}
	cl.Close()
	cl.Close() // idempotent
	if cl.pool != nil {
		t.Fatal("Close left the pool marked running")
	}
	for i := 0; i < 10; i++ { // stepping after Close restarts the pool
		if _, err := cl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Run(30) // Run continues from interval 20 and closes the pool
	if err != nil {
		t.Fatal(err)
	}
	if cl.pool != nil {
		t.Fatal("Run left the pool running")
	}
	if got, want := res.Fleet.Len(), ref.Fleet.Len(); got != want {
		t.Fatalf("interleaved run recorded %d intervals, want %d", got, want)
	}
	for i, s := range res.Fleet.Samples {
		if s != ref.Fleet.Samples[i] {
			t.Fatalf("interval %d diverged from the uninterrupted run:\n%+v\n%+v", i, s, ref.Fleet.Samples[i])
		}
	}

	// A serial cluster never starts a pool; Close must still be safe.
	serial := build()
	serial.workers = 1
	if _, err := serial.Step(); err != nil {
		t.Fatal(err)
	}
	if serial.pool != nil {
		t.Fatal("serial stepping started a pool")
	}
	serial.Close()
}

func TestClusterAggregates(t *testing.T) {
	res := runFleet(t, 0, 42, WeightedByCapacity{}, 120)
	if res.Fleet.Len() != 120 {
		t.Fatalf("fleet intervals = %d", res.Fleet.Len())
	}
	if len(res.Nodes) != 16 {
		t.Fatalf("node traces = %d", len(res.Nodes))
	}
	sum := res.Summarize()
	if sum.Nodes != 16 || sum.Intervals != 120 {
		t.Fatalf("summary shape: %+v", sum)
	}
	if sum.QoSAttainment <= 0.5 || sum.QoSAttainment > 1 {
		t.Fatalf("implausible fleet QoS attainment %v", sum.QoSAttainment)
	}
	if sum.TotalEnergyJ <= 0 {
		t.Fatal("no fleet energy recorded")
	}
	// The fleet sample must equal the sum of the node samples.
	for i, fs := range res.Fleet.Samples {
		var power, offered float64
		for _, tr := range res.Nodes {
			power += tr.Samples[i].PowerW()
			offered += tr.Samples[i].OfferedRPS
		}
		if math.Abs(power-fs.PowerW) > 1e-9*power {
			t.Fatalf("interval %d: fleet power %v != node sum %v", i, fs.PowerW, power)
		}
		if math.Abs(offered-fs.OfferedRPS) > 1e-9*offered {
			t.Fatalf("interval %d: fleet offered %v != node sum %v", i, fs.OfferedRPS, offered)
		}
	}
}

func TestClusterHeterogeneousFleet(t *testing.T) {
	spec := platform.JunoR1()
	var nodes []NodeOptions
	for i := 0; i < 4; i++ {
		wl := workload.Memcached()
		if i%2 == 1 {
			wl = workload.WebSearch()
		}
		pol, err := core.New(core.In, spec, core.DefaultParams(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NodeOptions{Spec: spec, Workload: wl, Policy: pol})
	}
	cl, err := New(Options{Nodes: nodes, Pattern: loadgen.Constant{Frac: 0.4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(90)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Len() != 90 {
		t.Fatalf("fleet intervals = %d", res.Fleet.Len())
	}
	// Capacity weighting must route more load to the higher-capacity
	// memcached nodes than to the websearch nodes.
	mc := res.Nodes[0].Samples[0].OfferedRPS
	ws := res.Nodes[1].Samples[0].OfferedRPS
	if mc <= ws {
		t.Fatalf("capacity split: memcached node got %v RPS, websearch node %v", mc, ws)
	}
}

// TestClusterOverloadSurfaces pins down that a node routed more load
// than its capacity shows the overload as QoS violations and straggler
// counts — in the default noisy mode too, where the engine's jitter
// clamp must not silently shed pattern-demanded overload.
func TestClusterOverloadSurfaces(t *testing.T) {
	spec := platform.JunoR1()
	nodes := []NodeOptions{
		{Spec: spec, Workload: workload.Memcached(), Policy: policy.NewStaticBig(spec)},
		{Spec: spec, Workload: workload.WebSearch(), Policy: policy.NewStaticBig(spec)},
	}
	// Round-robin halves the fleet load between a 36000 RPS node and a
	// ~44 RPS node: the websearch node is offered hundreds of times its
	// capacity.
	cl, err := New(Options{
		Nodes:    nodes,
		Pattern:  loadgen.Constant{Frac: 0.9},
		Splitter: RoundRobin{},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	ws := res.Nodes[1]
	last := ws.Samples[len(ws.Samples)-1]
	if last.OfferedRPS < 100*float64(spec.TotalCores()) {
		t.Fatalf("overload not routed through: websearch offered only %v RPS", last.OfferedRPS)
	}
	if last.QoSMet() {
		t.Fatal("an overloaded node must violate QoS")
	}
	if res.Summarize().TotalStragglers == 0 {
		t.Fatal("overload produced no stragglers")
	}
	for _, s := range ws.Samples {
		if math.IsNaN(s.TailLatency) || math.IsInf(s.TailLatency, 0) {
			t.Fatalf("overload produced non-finite tail latency %v", s.TailLatency)
		}
	}
}

func TestClusterWithBatchRunners(t *testing.T) {
	spec := platform.JunoR1()
	progs := batch.SPEC2006()[:2]
	var nodes []NodeOptions
	for i := 0; i < 2; i++ {
		pol, err := core.New(core.Co, spec, core.DefaultParams(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		runner, err := batch.NewRunner(progs)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NodeOptions{
			Spec: spec, Workload: workload.WebSearch(), Policy: pol, Batch: runner,
		})
	}
	cl, err := New(Options{Nodes: nodes, Pattern: loadgen.Constant{Frac: 0.3}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Nodes {
		if tr.MeanBatchIPS() <= 0 {
			t.Fatalf("node %d: no batch throughput recorded", i)
		}
	}

	// A shared runner must be rejected like a shared policy.
	runner, err := batch.NewRunner(progs)
	if err != nil {
		t.Fatal(err)
	}
	polA, _ := core.New(core.Co, spec, core.DefaultParams(), 1)
	polB, _ := core.New(core.Co, spec, core.DefaultParams(), 2)
	dup := []NodeOptions{
		{Spec: spec, Workload: workload.WebSearch(), Policy: polA, Batch: runner},
		{Spec: spec, Workload: workload.WebSearch(), Policy: polB, Batch: runner},
	}
	if _, err := New(Options{Nodes: dup, Pattern: loadgen.Constant{Frac: 0.3}}); err == nil {
		t.Fatal("want error for shared batch runner")
	}
}

func TestClusterValidation(t *testing.T) {
	spec := platform.JunoR1()
	pattern := loadgen.Constant{Frac: 0.5}
	if _, err := New(Options{Pattern: pattern}); err == nil {
		t.Fatal("want error for empty fleet")
	}
	if _, err := New(Options{Nodes: testFleet(t, 2, 1)}); err == nil {
		t.Fatal("want error for nil pattern")
	}
	if _, err := New(Options{Nodes: testFleet(t, 2, 1), Pattern: pattern, Workers: -1}); err == nil {
		t.Fatal("want error for negative workers")
	}
	shared := policy.NewStaticBig(spec)
	dup := []NodeOptions{
		{Spec: spec, Workload: workload.Memcached(), Policy: shared},
		{Spec: spec, Workload: workload.Memcached(), Policy: shared},
	}
	if _, err := New(Options{Nodes: dup, Pattern: pattern}); err == nil {
		t.Fatal("want error for shared policy instance")
	}
}

func splitCtx(total float64, nodes ...NodeState) SplitContext {
	return SplitContext{TotalRPS: total, Nodes: nodes}
}

func TestSplitters(t *testing.T) {
	fresh := splitCtx(3000,
		NodeState{ID: 0, CapacityRPS: 1000},
		NodeState{ID: 1, CapacityRPS: 2000},
		NodeState{ID: 2, CapacityRPS: 1000},
	)

	for _, sp := range []Splitter{RoundRobin{}, WeightedByCapacity{}, LeastLoaded{}} {
		shares := sp.Split(fresh)
		if len(shares) != 3 {
			t.Fatalf("%s: %d shares", sp.Name(), len(shares))
		}
		var sum float64
		for i, s := range shares {
			if s < 0 {
				t.Fatalf("%s: negative share %v for node %d", sp.Name(), s, i)
			}
			sum += s
		}
		if math.Abs(sum-3000) > 1e-9 {
			t.Fatalf("%s: shares sum to %v, want 3000", sp.Name(), sum)
		}
	}

	if s := (RoundRobin{}).Split(fresh); s[0] != 1000 || s[1] != 1000 || s[2] != 1000 {
		t.Fatalf("round-robin shares %v, want equal", s)
	}
	if s := (WeightedByCapacity{}).Split(fresh); s[1] != 2*s[0] || s[0] != s[2] {
		t.Fatalf("capacity shares %v, want 2:1 weighting", s)
	}
	// Before any interval, least-loaded behaves like capacity weighting.
	if s := (LeastLoaded{}).Split(fresh); s[1] != 2*s[0] {
		t.Fatalf("least-loaded cold shares %v, want capacity weighting", s)
	}

	// With feedback, least-loaded steers load toward free capacity and
	// away from QoS violators.
	loaded := splitCtx(1000,
		NodeState{ID: 0, CapacityRPS: 1000, Stepped: true, LastOfferedRPS: 900,
			LastTailLatency: 0.02, LastTarget: 0.01},
		NodeState{ID: 1, CapacityRPS: 1000, Stepped: true, LastOfferedRPS: 100,
			LastTailLatency: 0.005, LastTarget: 0.01},
	)
	s := (LeastLoaded{}).Split(loaded)
	if s[0] >= s[1] {
		t.Fatalf("least-loaded shares %v, want load steered to the free node", s)
	}
	// Node 0's weight: headroom 100, halved for the QoS violation = 50;
	// node 1's: 900. Shares split 50:900.
	if math.Abs(s[0]-1000*50.0/950.0) > 1e-9 {
		t.Fatalf("violator share %v, want %v", s[0], 1000*50.0/950.0)
	}

	if _, err := SplitterByName("least-loaded"); err != nil {
		t.Fatal(err)
	}
	if _, err := SplitterByName("nope"); err == nil {
		t.Fatal("want error for unknown splitter name")
	}
}

// badSplitter returns the wrong number of shares.
type badSplitter struct{}

func (badSplitter) Name() string                 { return "bad" }
func (badSplitter) Split(SplitContext) []float64 { return []float64{1} }

func TestClusterRejectsBadSplitter(t *testing.T) {
	cl, err := New(Options{
		Nodes:    testFleet(t, 2, 1),
		Pattern:  loadgen.Constant{Frac: 0.5},
		Splitter: badSplitter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Step(); err == nil {
		t.Fatal("want error for mis-sized splitter output")
	}
	// The error latches: a desynchronized fleet cannot be stepped again.
	if _, err := cl.Step(); err == nil {
		t.Fatal("want latched error on Step after failure")
	}
	if cl.Fleet().Len() != 0 {
		t.Fatalf("failed fleet recorded %d intervals", cl.Fleet().Len())
	}
}

// sliceValuePolicy is a non-comparable (slice-bearing, non-pointer)
// Policy implementation; the shared-instance check must skip it rather
// than panic on an unhashable map key.
type sliceValuePolicy struct{ weights []float64 }

func (sliceValuePolicy) Name() string { return "slice-value" }
func (sliceValuePolicy) Decide(obs policy.Observation) platform.Config {
	return obs.Current
}
func (sliceValuePolicy) Reset() {}

func TestClusterNonComparablePolicy(t *testing.T) {
	spec := platform.JunoR1()
	nodes := []NodeOptions{
		{Spec: spec, Workload: workload.Memcached(), Policy: sliceValuePolicy{weights: []float64{1}}},
		{Spec: spec, Workload: workload.Memcached(), Policy: sliceValuePolicy{weights: []float64{2}}},
	}
	cl, err := New(Options{Nodes: nodes, Pattern: loadgen.Constant{Frac: 0.3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(10); err != nil {
		t.Fatal(err)
	}
}

func TestClusterResolvesWorkers(t *testing.T) {
	cl, err := New(Options{Nodes: testFleet(t, 2, 1), Pattern: loadgen.Constant{Frac: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Workers() <= 0 {
		t.Fatalf("Workers() = %d, want the resolved GOMAXPROCS default", cl.Workers())
	}
}
