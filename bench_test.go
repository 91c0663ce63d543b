// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (cmd/paperfigs prints the same artefacts). Each benchmark
// regenerates the artefact end to end — workload generation, policy
// decisions, platform model, metric aggregation — and reports the key
// reproduced number as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation.
package hipster_test

import (
	"runtime"
	"testing"

	"hipster"
	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/core"
	"hipster/internal/experiments"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/workload"
)

func benchOpts() experiments.RunOpts {
	return experiments.RunOpts{Seed: experiments.DefaultSeed}
}

// BenchmarkTable2Characterisation regenerates Table 2: the stress-
// microbenchmark power/performance characterisation of the platform.
func BenchmarkTable2Characterisation(b *testing.B) {
	spec := platform.JunoR1()
	var rows []platform.CharacterizationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(spec)
	}
	b.ReportMetric(rows[0].AllCoresW, "bigclusterW")
	b.ReportMetric(rows[1].AllCoresW, "smallclusterW")
}

// BenchmarkFig1DiurnalPower regenerates Figure 1: Web-Search pinned to
// the big cores under diurnal load; reports the power floor (paper:
// power never drops below ~60% of peak).
func BenchmarkFig1DiurnalPower(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig1(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MinPowerPct, "minpower%")
}

// BenchmarkFig2aMemcachedEfficiency regenerates Figure 2a: the
// per-load-level configuration search and RPS/W comparison between the
// heterogeneous policy and the baseline policy for Memcached.
func BenchmarkFig2aMemcachedEfficiency(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig2(spec, workload.Memcached())
	}
	b.ReportMetric(res.MeanGainPct, "gain%")
}

// BenchmarkFig2bWebSearchEfficiency regenerates Figure 2b (QPS/W for
// Web-Search).
func BenchmarkFig2bWebSearchEfficiency(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig2(spec, workload.WebSearch())
	}
	b.ReportMetric(res.MeanGainPct, "gain%")
}

// BenchmarkFig2cStateMachines regenerates Figure 2c: the per-workload
// optimal state machines.
func BenchmarkFig2cStateMachines(b *testing.B) {
	spec := platform.JunoR1()
	var rows []experiments.StateMachineRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig2c(spec, workload.Memcached(), workload.WebSearch())
	}
	differ := 0
	for _, r := range rows {
		if r.Memcached != r.WebSearch {
			differ++
		}
	}
	b.ReportMetric(float64(differ), "differing-levels")
}

// BenchmarkFig3CrossStateMachine regenerates Figure 3: the efficiency
// lost when driving each workload with the other's state machine.
func BenchmarkFig3CrossStateMachine(b *testing.B) {
	spec := platform.JunoR1()
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig3(spec, workload.Memcached(), workload.WebSearch())
	}
	worst := 1.0
	for _, r := range rows {
		if r.Memcached < worst {
			worst = r.Memcached
		}
	}
	b.ReportMetric(worst, "worst-mc-ratio")
}

// BenchmarkFig5HeuristicComparison regenerates Figure 5: static
// mapping, Octopus-Man and Hipster's heuristic on both workloads over
// the diurnal day.
func BenchmarkFig5HeuristicComparison(b *testing.B) {
	spec := platform.JunoR1()
	var omQoS float64
	for i := 0; i < b.N; i++ {
		for _, wl := range []*workload.Model{workload.Memcached(), workload.WebSearch()} {
			res, err := experiments.Fig5(spec, wl, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			for _, run := range res.Runs {
				if run.Policy == "octopus-man" && wl.Name == "memcached" {
					omQoS = run.Summary.QoSGuarantee * 100
				}
			}
		}
	}
	b.ReportMetric(omQoS, "om-mc-qos%")
}

// BenchmarkFig6HipsterInMemcached regenerates Figure 6.
func BenchmarkFig6HipsterInMemcached(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig67(spec, workload.Memcached(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Summary.QoSGuarantee*100, "qos%")
	b.ReportMetric(float64(res.Summary.MigrationEvents), "migrations")
}

// BenchmarkFig7HipsterInWebSearch regenerates Figure 7.
func BenchmarkFig7HipsterInWebSearch(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig67(spec, workload.WebSearch(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Summary.QoSGuarantee*100, "qos%")
	b.ReportMetric(float64(res.Summary.MigrationEvents), "migrations")
}

// BenchmarkFig8RampResponse regenerates Figure 8: the 50%->100% load
// ramp; reports Octopus-Man's tardiness relative to HipsterIn in the
// 75-90% region (paper: 3.7x).
func BenchmarkFig8RampResponse(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig8(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TardinessRatio7590, "om/hipster-tardiness")
}

// BenchmarkFig9LearningCurve regenerates Figure 9: windowed QoS
// guarantees with a 200 s learning phase.
func BenchmarkFig9LearningCurve(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig9(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.HipsterAfterLearn, "hipster-qos%")
	b.ReportMetric(res.OctopusMean, "om-qos%")
}

// BenchmarkFig10BucketSweep regenerates Figure 10: the bucket-size
// sensitivity sweep on both workloads.
func BenchmarkFig10BucketSweep(b *testing.B) {
	spec := platform.JunoR1()
	var spread float64
	for i := 0; i < b.N; i++ {
		for _, wl := range []*workload.Model{workload.WebSearch(), workload.Memcached()} {
			rows, err := experiments.Fig10(spec, wl, benchOpts())
			if err != nil {
				b.Fatal(err)
			}
			spread = rows[0].QoSViolationsPct - rows[len(rows)-1].QoSViolationsPct
		}
	}
	b.ReportMetric(spread, "mc-violation-spread")
}

// BenchmarkTable3Summary regenerates Table 3: five policies on two
// workloads; reports HipsterIn's headline numbers.
func BenchmarkTable3Summary(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Table3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Table3(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		if r.Policy == "hipster-in" && r.Workload == "memcached" {
			b.ReportMetric(r.QoSGuaranteePct, "mc-qos%")
			b.ReportMetric(r.EnergyReductPct, "mc-energy-red%")
		}
	}
}

// BenchmarkFig11Collocation regenerates Figure 11: Web-Search
// collocated with each SPEC CPU 2006 program under static, Octopus-Man
// and HipsterCo management.
func BenchmarkFig11Collocation(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig11(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanHipsterQoSPct, "hc-qos%")
	b.ReportMetric(res.MeanHipsterIPS, "hc-ips-x")
	b.ReportMetric(res.MeanOctopusQoSPct, "om-qos%")
}

// BenchmarkAblationOMThresholds regenerates the §4.1 Octopus-Man
// danger/safe threshold sweep.
func BenchmarkAblationOMThresholds(b *testing.B) {
	spec := platform.JunoR1()
	var bestQoS float64
	for i := 0; i < b.N; i++ {
		rows, best, err := experiments.OMThresholdSweep(spec, workload.Memcached(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		bestQoS = rows[best].QoSGuaranteePct
	}
	b.ReportMetric(bestQoS, "best-qos%")
}

// BenchmarkAblationRewardTerms regenerates the Hipster parameter
// ablation (gamma, alpha, stochastic term, learning duration).
func BenchmarkAblationRewardTerms(b *testing.B) {
	spec := platform.JunoR1()
	var defaults float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RewardAblation(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		defaults = rows[0].QoSGuaranteePct
	}
	b.ReportMetric(defaults, "defaults-qos%")
}

// BenchmarkQueueingValidation regenerates the analytic-vs-DES queueing
// model validation.
func BenchmarkQueueingValidation(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		var err error
		_, maxErr, err = experiments.QueueingValidation(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(maxErr*100, "max-rel-err%")
}

// BenchmarkExtOracleBound regenerates the oracle-bound extension: how
// much of the theoretically achievable energy saving HipsterIn's
// learned table captures.
func BenchmarkExtOracleBound(b *testing.B) {
	spec := platform.JunoR1()
	var capture float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OracleBound(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		capture = rows[0].CaptureFrac
	}
	b.ReportMetric(capture*100, "mc-captured%")
}

// BenchmarkExtSpikeResilience regenerates the sudden-load-spike
// extension (Dean & Barroso tails).
func BenchmarkExtSpikeResilience(b *testing.B) {
	spec := platform.JunoR1()
	var hipster float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SpikeResilience(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == "hipster-in" {
				hipster = r.SpikeQoSPct
			}
		}
	}
	b.ReportMetric(hipster, "hipster-spike-qos%")
}

// BenchmarkExtWarmStart regenerates the warm-started deployment
// extension (serialised lookup table).
func BenchmarkExtWarmStart(b *testing.B) {
	spec := platform.JunoR1()
	var res experiments.WarmStartResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.WarmStart(spec, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.WarmQoSPct, "warm-qos%")
}

// BenchmarkEngineStep measures the per-interval cost of the simulation
// loop with a HipsterIn policy attached — the simulated analogue of the
// paper's <2 ms runtime-overhead budget (§3.7).
func BenchmarkEngineStep(b *testing.B) {
	spec := platform.JunoR1()
	mgr, err := hipster.NewHipsterIn(spec, hipster.DefaultParams(), 1)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := hipster.NewSimulation(hipster.SimOptions{
		Spec:     spec,
		Workload: hipster.Memcached(),
		Pattern:  hipster.DefaultDiurnal(),
		Policy:   mgr,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster16Nodes steps a 16-node HipsterIn fleet over a
// 300-second diurnal slice, once with serial node stepping and once
// with one worker per core, demonstrating the multi-core speedup of the
// cluster layer (results are bit-identical across worker counts; only
// wall-clock changes).
func BenchmarkCluster16Nodes(b *testing.B) {
	spec := platform.JunoR1()
	// Sub-benchmark names must not depend on the machine shape: the CI
	// regression gate (cmd/benchgate) matches them against a committed
	// baseline, so "parallel" rather than "workers=<GOMAXPROCS>".
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		workers := bc.workers
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nodes, err := hipster.UniformClusterNodes(16, spec, hipster.Memcached(),
					func(nodeID int) (hipster.Policy, error) {
						return hipster.NewHipsterIn(spec, hipster.DefaultParams(), 42+int64(nodeID))
					})
				if err != nil {
					b.Fatal(err)
				}
				cl, err := hipster.NewCluster(hipster.ClusterOptions{
					Nodes:    nodes,
					Pattern:  hipster.DefaultDiurnal(),
					Splitter: hipster.NewLeastLoadedSplitter(),
					Workers:  workers,
					Seed:     42,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := cl.Run(300)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Summarize().QoSAttainment*100, "fleet-qos%")
			}
		})
	}
}

// BenchmarkClusterDES16Nodes runs the request-level cluster DES over a
// 16-node Web-Search fleet at 60% load for 120 simulated seconds with
// hedged requests — every one of the ~57 000 requests is routed through
// the splitter at arrival time, carries a hedge timer, and flows
// through a per-node queue and server pool. Gated in CI alongside the
// interval-mode cluster benchmarks (ns/op and the allocation budget vs
// ci/bench_baseline.json), it keeps the fleet event loop's cost — heap
// churn, request recycling, per-interval summaries — from regressing.
func BenchmarkClusterDES16Nodes(b *testing.B) {
	spec := platform.JunoR1()
	var p99 float64
	for i := 0; i < b.N; i++ {
		nodes, err := hipster.UniformClusterDESNodes(16, spec, hipster.WebSearch())
		if err != nil {
			b.Fatal(err)
		}
		fl, err := hipster.NewClusterDES(hipster.ClusterDESOptions{
			Nodes:      nodes,
			Pattern:    hipster.ConstantLoad{Frac: 0.6},
			Mitigation: hipster.NewHedgedMitigation(0),
			Workers:    runtime.GOMAXPROCS(0),
			Seed:       42,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := fl.Run(120)
		if err != nil {
			b.Fatal(err)
		}
		p99 = res.Latency.P99
	}
	b.ReportMetric(p99*1000, "p99-ms")
}

// BenchmarkClusterDESResilience16Nodes runs the request-level cluster
// DES with the full resilience layer armed: a 16-node Web-Search fleet
// at 60% load for 120 simulated seconds with hedged requests plus
// per-attempt deadlines, bounded retries with backoff, per-node
// circuit breakers and token-bucket admission, hedge budgets and
// losing-copy cancellation. Against BenchmarkClusterDES16Nodes it
// prices the resilience machinery itself — deadline timers on every
// dispatch, admission checks on every route, the serial-section
// breaker/budget roll. Gated in CI (ns/op and the allocation budget vs
// ci/bench_baseline.json).
func BenchmarkClusterDESResilience16Nodes(b *testing.B) {
	spec := platform.JunoR1()
	var p99 float64
	for i := 0; i < b.N; i++ {
		nodes, err := hipster.UniformClusterDESNodes(16, spec, hipster.WebSearch())
		if err != nil {
			b.Fatal(err)
		}
		fl, err := hipster.NewClusterDES(hipster.ClusterDESOptions{
			Nodes:      nodes,
			Pattern:    hipster.ConstantLoad{Frac: 0.6},
			Mitigation: hipster.NewHedgedMitigation(0),
			Workers:    runtime.GOMAXPROCS(0),
			Seed:       42,
			Resilience: &hipster.ResilienceOptions{
				MaxRetries:   2,
				Timeout:      0.5,
				Breaker:      &hipster.BreakerOptions{},
				RateLimit:    &hipster.RateLimitOptions{RPS: 400},
				CancelHedges: true,
				HedgeBudget:  50,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := fl.Run(120)
		if err != nil {
			b.Fatal(err)
		}
		p99 = res.Latency.P99
	}
	b.ReportMetric(p99*1000, "p99-ms")
}

// BenchmarkClusterDESFaults16Nodes runs the request-level cluster DES
// with fault injection and the predictive mitigation armed: a 16-node
// Web-Search fleet at 60% load for 120 simulated seconds with every
// fault class firing — crashes, slow nodes, partitions, spot
// revocations — and the per-node drain-estimate detector scanning the
// fleet each boundary. Against BenchmarkClusterDES16Nodes it prices
// the fault machinery itself: the schedule replay and queue teardown
// in the serial section, partition gating on every hedge/steal probe,
// and the detector's EWMA sweep. Gated in CI (ns/op and the allocation
// budget vs ci/bench_baseline.json).
func BenchmarkClusterDESFaults16Nodes(b *testing.B) {
	spec := platform.JunoR1()
	var p99 float64
	for i := 0; i < b.N; i++ {
		nodes, err := hipster.UniformClusterDESNodes(16, spec, hipster.WebSearch())
		if err != nil {
			b.Fatal(err)
		}
		fl, err := hipster.NewClusterDES(hipster.ClusterDESOptions{
			Nodes:      nodes,
			Pattern:    hipster.ConstantLoad{Frac: 0.6},
			Mitigation: hipster.NewPredictiveMitigation(0),
			Workers:    runtime.GOMAXPROCS(0),
			Seed:       42,
			Faults: &hipster.FaultOptions{
				CrashRate:     0.02,
				SlowRate:      0.02,
				PartitionRate: 0.01,
				SpotFraction:  0.25,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := fl.Run(120)
		if err != nil {
			b.Fatal(err)
		}
		p99 = res.Latency.P99
	}
	b.ReportMetric(p99*1000, "p99-ms")
}

// BenchmarkClusterDESLearn16Nodes runs the learn-enabled request-level
// cluster DES: a 16-node Web-Search fleet at 60% load for 120 simulated
// seconds with every node's HipsterIn manager deciding its operating
// point at each interval boundary from the measured request tail, and
// federation syncing the tables every 10 intervals. Gated in CI (ns/op
// and the allocation budget vs ci/bench_baseline.json), it keeps the
// serial-section learning step — observation assembly, table updates,
// reconfiguration drains, federation rounds — from regressing the event
// loop it rides on.
func BenchmarkClusterDESLearn16Nodes(b *testing.B) {
	spec := platform.JunoR1()
	var p99 float64
	for i := 0; i < b.N; i++ {
		nodes, err := hipster.UniformClusterDESNodes(16, spec, hipster.WebSearch())
		if err != nil {
			b.Fatal(err)
		}
		fl, err := hipster.NewClusterDES(hipster.ClusterDESOptions{
			Nodes:   nodes,
			Pattern: hipster.ConstantLoad{Frac: 0.6},
			Workers: runtime.GOMAXPROCS(0),
			Seed:    42,
			Learn: &hipster.ClusterDESLearn{
				Federation: &hipster.FederationOptions{SyncEvery: 10},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := fl.Run(120)
		if err != nil {
			b.Fatal(err)
		}
		p99 = res.Latency.P99
	}
	b.ReportMetric(p99*1000, "p99-ms")
}

// BenchmarkClusterDES256Nodes runs the request-level cluster DES over
// a 256-node Web-Search fleet at 30% load with work stealing for 60
// simulated seconds. 30% is typical datacenter utilisation: most
// completions leave a node idle and try to steal, yet few queues are
// deep enough to rob, so the steal path exits on the loop's deep-queue
// count instead of scanning the fleet, and each arrival routes by a
// short walk over the running routing shares that starts at the
// loop's guide-table entry. The "serial" variant
// runs the default single fleet-wide domain; the sharded variant
// partitions the roster into 8 routing domains that exchange
// cross-domain effects only at interval boundaries, each with its own
// smaller event heap and request table; results stay a pure function
// of (seed, domain count), and on multi-core hosts the domains also
// step in parallel on the worker pool. Sub-benchmark names are
// machine-independent ("serial", "domains=8") because the CI
// regression gate matches them against the committed baseline, which
// is why the one-domain variant keeps the name "serial".
func BenchmarkClusterDES256Nodes(b *testing.B) {
	spec := platform.JunoR1()
	for _, bc := range []struct {
		name    string
		domains int
	}{
		{"serial", 0},
		{"domains=8", 8},
	} {
		domains := bc.domains
		b.Run(bc.name, func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				nodes, err := hipster.UniformClusterDESNodes(256, spec, hipster.WebSearch())
				if err != nil {
					b.Fatal(err)
				}
				fl, err := hipster.NewClusterDES(hipster.ClusterDESOptions{
					Nodes:      nodes,
					Pattern:    hipster.ConstantLoad{Frac: 0.3},
					Mitigation: hipster.NewWorkStealingMitigation(),
					Workers:    runtime.GOMAXPROCS(0),
					Domains:    domains,
					Seed:       42,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := fl.Run(60)
				if err != nil {
					b.Fatal(err)
				}
				p99 = res.Latency.P99
			}
			b.ReportMetric(p99*1000, "p99-ms")
		})
	}
}

// BenchmarkClusterAutoscale steps a federated 16-node HipsterIn roster
// under a bursty load with elastic sizing: the active set follows the
// bursts, joining nodes are warm-started from the fleet table, and
// departing nodes flush their deltas. Gated in CI alongside
// BenchmarkCluster16Nodes, it keeps the serial-section additions
// (scaling decision, warm-start/flush, federation sync over a moving
// active set) from regressing the coordinator's cost.
func BenchmarkClusterAutoscale(b *testing.B) {
	spec := platform.JunoR1()
	var saved float64
	for i := 0; i < b.N; i++ {
		nodes, err := hipster.UniformClusterNodes(16, spec, hipster.Memcached(),
			func(nodeID int) (hipster.Policy, error) {
				return hipster.NewHipsterIn(spec, hipster.DefaultParams(), 42+int64(nodeID))
			})
		if err != nil {
			b.Fatal(err)
		}
		cl, err := hipster.NewCluster(hipster.ClusterOptions{
			Nodes:      nodes,
			Pattern:    hipster.Spike{Base: 0.3, Peak: 0.8, EverySecs: 60, SpikeSecs: 15, Horizon: 300},
			Workers:    runtime.GOMAXPROCS(0),
			Seed:       42,
			Federation: &hipster.FederationOptions{SyncEvery: 5},
			Autoscale: &hipster.AutoscaleOptions{
				MinNodes:           2,
				CooldownIntervals:  3,
				DownAfterIntervals: 2,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := cl.Run(300)
		if err != nil {
			b.Fatal(err)
		}
		st, _ := cl.AutoscaleStats()
		saved = 100 * (1 - float64(st.NodeIntervals)/float64(16*res.Fleet.Len()))
	}
	b.ReportMetric(saved, "node-intervals-saved%")
}

// BenchmarkBuildIntervalFleet builds, without running, the end-to-end
// benchmark's interval-fleet shape: 512 HipsterIn Memcached nodes on
// Juno R1, least-loaded splitting, federation every 10 intervals and
// target-utilization autoscaling with a floor of 128, over the four-day
// diurnal pattern. Each op seeds 2,048 RNG streams (four per node) and
// orders 512 state-machine ladders. Its alloc and byte budgets in
// ci/bench_baseline.json keep construction from regressing; the name
// stays off the ns/op-gated prefixes.
func BenchmarkBuildIntervalFleet(b *testing.B) {
	spec := platform.JunoR1()
	params := core.DefaultParams()
	day := loadgen.DefaultDiurnal()
	day.Days = 4
	for i := 0; i < b.N; i++ {
		nodes, err := cluster.Uniform(512, spec, workload.Memcached(), func(id int) (policy.Policy, error) {
			return core.New(core.In, spec, params, 42+int64(id))
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.New(cluster.Options{
			Nodes:      nodes,
			Pattern:    day,
			Splitter:   cluster.LeastLoaded{},
			Seed:       42,
			Federation: &cluster.FederationOptions{SyncEvery: 10},
			Autoscale: &cluster.AutoscaleOptions{
				Policy:   autoscale.TargetUtilization{},
				MinNodes: 128,
			},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneSmall runs the offline tuner end to end on a small
// instance — a 4-node fleet, 40-second evaluations, one hill-climbing
// round of two neighbors from the default point and from one random
// restart, one training seed — so CI
// gates the search harness itself (proposal, dedup, candidate fan-out,
// serial ledger fold) riding on a handful of fleet evaluations.
// Workers is 1 so the measurement is machine-independent, and the
// search's determinism makes the allocation count near-exact, which is
// what the alloc budget in ci/bench_baseline.json pins.
func BenchmarkTuneSmall(b *testing.B) {
	ev := hipster.TuneFleetEvaluator{Nodes: 4, Horizon: 40}
	space, err := ev.Space()
	if err != nil {
		b.Fatal(err)
	}
	evaluate := ev.Evaluator(space)
	var score float64
	for i := 0; i < b.N; i++ {
		res, err := hipster.Tune(hipster.TuneOptions{
			Space:     space,
			Evaluate:  evaluate,
			Seeds:     []int64{42},
			Seed:      1,
			Neighbors: 2,
			MaxRounds: 1,
			Patience:  1,
			Restarts:  1,
			Workers:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		score = res.Winner.Score
	}
	b.ReportMetric(score, "winner-score")
}

// BenchmarkExtSeedRobustness regenerates the multi-seed robustness
// study of HipsterIn's headline metrics.
func BenchmarkExtSeedRobustness(b *testing.B) {
	spec := platform.JunoR1()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SeedRobustness(spec, benchOpts(), 3)
		if err != nil {
			b.Fatal(err)
		}
		worst = rows[0].QoSMinPct
	}
	b.ReportMetric(worst, "mc-worst-seed-qos%")
}
