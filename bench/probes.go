package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/queueing"
	"hipster/internal/sim"
	"hipster/internal/stats"
	"hipster/internal/telemetry"
	model "hipster/internal/workload"
)

// probeInput sizes the primitive timings from the workload's own run.
type probeInput struct {
	inflight    float64 // Little's law: arrival rate × mean sojourn
	queueDepth  float64 // mean per-node backlog
	perInterval float64 // simulated requests per interval
	labels      []string
	streams     int // RNG streams the fleet derives
	fleet       *telemetry.FleetTrace
	nodes       []*telemetry.Trace
	roster      int
	nodeCap     float64 // per-node capacity, req/s
	spec        *platform.Spec
	wl          *model.Model
}

func probeInputDES(opts clusterdes.Options, fleetCap float64, out clusterdes.Result) probeInput {
	ivs := float64(out.Fleet.Len())
	rate := float64(out.Stats.Requests) / ivs
	return probeInput{
		inflight:    rate * out.Latency.Mean,
		queueDepth:  meanBacklog(out.Fleet),
		perInterval: rate,
		labels:      []string{"des-arrival", "des-route", "des-service", "des-retry"},
		streams:     4 * max(1, opts.Domains),
		fleet:       out.Fleet,
		nodes:       out.Nodes,
		roster:      len(opts.Nodes),
		nodeCap:     fleetCap / float64(len(opts.Nodes)),
		spec:        opts.Nodes[0].Spec,
		wl:          opts.Nodes[0].Workload,
	}
}

func probeInputInterval(opts cluster.Options, fleetCap float64, fleet *telemetry.FleetTrace, nodes []*telemetry.Trace, requests float64) probeInput {
	ivs := float64(fleet.Len())
	var sojourn float64
	for _, s := range fleet.Samples {
		sojourn += s.MedianTail
	}
	return probeInput{
		inflight:    requests / ivs * sojourn / ivs,
		queueDepth:  meanBacklog(fleet),
		perInterval: requests / ivs,
		labels:      []string{"load", "workload", "power", "perf"},
		streams:     4 * len(opts.Nodes),
		fleet:       fleet,
		nodes:       nodes,
		roster:      len(opts.Nodes),
		nodeCap:     fleetCap / float64(len(opts.Nodes)),
		spec:        opts.Nodes[0].Spec,
		wl:          opts.Nodes[0].Workload,
	}
}

func meanBacklog(fleet *telemetry.FleetTrace) float64 {
	var sum float64
	for _, s := range fleet.Samples {
		if s.Nodes > 0 {
			sum += s.Backlog / float64(s.Nodes)
		}
	}
	return sum / float64(fleet.Len())
}

// sink keeps timed results live.
var sink int

// primitives times the layers' building blocks on inputs sized from
// the run, and the two per-call policy layers on decisions replayed
// from it, so every one is measured on every workload.
func primitives(in probeInput, seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	p50, tail, err := decideNs(in, seed)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"queueing.heap_push_pop_ns": heapNs(int(math.Round(in.inflight)), rng),
		"queueing.ring_push_pop_ns": ringNs(int(math.Round(in.queueDepth))),
		"stats.sort_ns_per_elem":    sortNs(int(math.Round(in.perInterval)), rng),
		"sim.subrng_ns":             subRNGNs(in.labels, in.streams, seed),
		"core.decide_ns_p50":        p50,
		"core.decide_ns_tail":       tail,
		"autoscale.desired_us":      desiredUs(in),
	}, nil
}

// heapEvent has the DES event's layout.
type heapEvent struct {
	kind    int8
	a, b, c int32
}

// heapNs is one Pop plus one Push on a TimeHeap holding depth events.
func heapNs(depth int, rng *rand.Rand) float64 {
	depth = max(depth, 1)
	gaps := make([]float64, 4096)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64() * float64(depth)
	}
	var h queueing.TimeHeap[heapEvent]
	for i := 0; i < depth; i++ {
		h.Push(gaps[i%len(gaps)]*rng.Float64(), heapEvent{a: int32(i)})
	}
	const ops = 1 << 20
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		t, ev := h.Pop()
		h.Push(t+gaps[i%len(gaps)], ev)
	}
	return float64(time.Since(t0).Nanoseconds()) / ops
}

// ringNs is one Pop plus one Push on a Ring holding depth requests.
func ringNs(depth int) float64 {
	depth = max(depth, 1)
	var r queueing.Ring[int32]
	for i := 0; i < depth; i++ {
		r.Push(int32(i))
	}
	const ops = 1 << 22
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		r.Push(r.Pop())
	}
	return float64(time.Since(t0).Nanoseconds()) / ops
}

// sortNs is SortFloats' cost per element on slices of n sojourn-like
// values, sorting 2^21 elements in each of three rounds.
func sortNs(n int, rng *rand.Rand) float64 {
	n = min(max(n, 2), 1<<20)
	copies := max(1, (1<<21)/n)
	master := make([]float64, n*copies)
	for i := range master {
		master[i] = math.Exp(rng.NormFloat64())
	}
	buf := make([]float64, len(master))
	var elapsed time.Duration
	const rounds = 3
	for r := 0; r < rounds; r++ {
		copy(buf, master)
		t0 := time.Now()
		for c := 0; c < copies; c++ {
			stats.SortFloats(buf[c*n : (c+1)*n])
		}
		elapsed += time.Since(t0)
	}
	return float64(elapsed.Nanoseconds()) / float64(rounds*len(master))
}

// subRNGNs is one cold SubRNG call over the workload's stream labels,
// on seeds no run uses.
func subRNGNs(labels []string, streams int, seed int64) float64 {
	calls := max(streams, 2048)
	base := seed ^ 0x5DEECE66D
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		sink += int(sim.SubRNG(base+int64(i/len(labels)), labels[i%len(labels)]).Int63() & 1)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// decideNs times a fresh HipsterIn manager deciding on 20000
// observations replayed from the run's node traces, feeding each
// decision back as the next observation's configuration. Decisions are
// timed in batches of 16, finer than one clock read per ~100-ns call
// resolves; it returns the median and the tail (see tailQuantile) of
// the per-decision time over the batches.
func decideNs(in probeInput, seed int64) (p50, tail float64, err error) {
	m, err := core.New(core.In, in.spec, core.DefaultParams(), seed)
	if err != nil {
		return 0, 0, fmt.Errorf("decide probe: %w", err)
	}
	const calls, batch = 20000, 16
	var obs []policy.Observation
	for len(obs) < calls {
		before := len(obs)
		for _, tr := range in.nodes {
			for _, s := range tr.Samples {
				if len(obs) == calls {
					break
				}
				obs = append(obs, policy.Observation{
					Time:        s.T,
					Interval:    1,
					LoadFrac:    in.wl.LoadFrac(s.OfferedRPS),
					TailLatency: s.TailLatency,
					Target:      s.Target,
					PowerW:      s.PowerW(),
				})
			}
		}
		if len(obs) == before {
			return 0, 0, fmt.Errorf("decide probe: the run recorded no node samples")
		}
	}
	cur := platform.Config{NBig: in.spec.Big.Cores, BigFreq: in.spec.Big.MaxFreq()}
	per := make([]float64, 0, calls/batch)
	for i := 0; i+batch <= calls; i += batch {
		t0 := time.Now()
		for j := i; j < i+batch; j++ {
			obs[j].Current = cur
			cur = m.Decide(obs[j]).Normalize(in.spec)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	sort.Float64s(per)
	return percentile(per, 0.5), percentile(per, tailQuantile(len(per))), nil
}

// desiredUs is one TargetUtilization decision over the workload's
// roster, replaying its per-interval demand and active count.
func desiredUs(in probeInput) float64 {
	roster := make([]autoscale.NodeInfo, in.roster)
	for i := range roster {
		roster[i] = autoscale.NodeInfo{ID: i, CapacityRPS: in.nodeCap}
	}
	pol := autoscale.TargetUtilization{}
	const calls = 20000
	t0 := time.Now()
	for k := 0; k < calls; k++ {
		s := in.fleet.Samples[k%in.fleet.Len()]
		sink += pol.Desired(autoscale.Context{Interval: k, T: s.T, OfferedRPS: s.OfferedRPS, Nodes: roster, Active: s.Nodes})
	}
	return float64(time.Since(t0).Nanoseconds()) / calls / 1e3
}
