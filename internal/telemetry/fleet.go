package telemetry

import (
	"sort"

	"hipster/internal/stats"
)

// DefaultStragglerFactor flags a node as a straggler when its tail
// latency exceeds this multiple of the fleet-median tail latency for the
// interval (the straggler criterion used by cluster-level schedulers;
// cf. START, arXiv:2111.10241).
const DefaultStragglerFactor = 1.5

// FleetSample aggregates one monitoring interval across every node of a
// cluster: fleet-wide load, QoS attainment, power, and the interval's
// straggler count.
type FleetSample struct {
	T     float64 `json:"t"`
	Nodes int     `json:"nodes"`

	// Load and throughput summed across nodes.
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Backlog     float64 `json:"backlog"`

	// QoS across the fleet.
	QoSMet        int     `json:"qos_met"`        // nodes meeting their target
	Stragglers    int     `json:"stragglers"`     // nodes beyond factor × median tail
	MedianTail    float64 `json:"median_tail_s"`  // fleet-median tail latency
	WorstTail     float64 `json:"worst_tail_s"`   // slowest node's tail latency
	MaxTardiness  float64 `json:"max_tardiness"`  // worst QoScurr/QoStarget
	MeanTardiness float64 `json:"mean_tardiness"` // mean QoScurr/QoStarget

	// Power and energy summed across nodes.
	PowerW  float64 `json:"power_w"`
	EnergyJ float64 `json:"energy_j"` // cumulative

	// Straggler-mitigation and warm-up activity, recorded by the
	// cluster-scale DES (always zero in the interval-granularity mode):
	// hedge requests issued and won, cross-node steals, and nodes that
	// spent this interval warming up after activation.
	Hedges    int `json:"hedges,omitempty"`
	HedgeWins int `json:"hedge_wins,omitempty"`
	Steals    int `json:"steals,omitempty"`
	Warming   int `json:"warming,omitempty"`

	// Request-path resilience activity (cluster DES mode with the
	// resilience layer enabled; zero otherwise): re-issued attempts,
	// per-attempt deadline expiries, circuit-breaker open transitions,
	// token-bucket admission rejections, and losing hedge copies
	// cancelled mid-service.
	Retries      int `json:"retries,omitempty"`
	Timeouts     int `json:"timeouts,omitempty"`
	BreakerOpens int `json:"breaker_opens,omitempty"`
	RateLimited  int `json:"rate_limited,omitempty"`
	HedgeCancels int `json:"hedge_cancels,omitempty"`

	// Fault-injection activity (cluster DES mode with Faults or the
	// predictive mitigation enabled; zero otherwise): requests destroyed
	// by crashes this interval, the fleet's current crashed/revoked and
	// degraded populations, active nodes cut off from the coordinator's
	// partition side, and nodes the predictive detector flags suspect.
	Lost        int `json:"lost,omitempty"`
	DownNodes   int `json:"down_nodes,omitempty"`
	SlowNodes   int `json:"slow_nodes,omitempty"`
	Partitioned int `json:"partitioned,omitempty"`
	Suspects    int `json:"suspects,omitempty"`

	// In-DES learning activity (cluster DES mode with the RL loop
	// enabled; zero otherwise): nodes whose policy reported the
	// learning phase this interval, and the fleet-mean RL reward of the
	// table updates applied at this boundary (zero until every policy
	// has completed its first state-action-reward transition).
	Learning   int     `json:"learning,omitempty"`
	RewardMean float64 `json:"reward_mean,omitempty"`
}

// QoSAttainment returns the fraction of nodes meeting QoS this interval.
func (f FleetSample) QoSAttainment() float64 {
	if f.Nodes == 0 {
		return 0
	}
	return float64(f.QoSMet) / float64(f.Nodes)
}

// Merger computes interval merges through a reusable scratch buffer, so
// a coordinator merging every interval of a long run does not allocate
// per interval. The zero value is ready to use; a Merger is not safe
// for concurrent use.
type Merger struct {
	tails []float64
}

// MergeInterval folds the per-node samples of one monitoring interval
// into a FleetSample, counting as stragglers the nodes whose tail
// exceeds DefaultStragglerFactor times the fleet median. The per-node
// samples must all carry the same interval-end timestamp; the merge is
// a pure function of the inputs, so fleet aggregates are identical
// however node stepping was parallelised.
func (m *Merger) MergeInterval(samples []Sample) FleetSample {
	fs := FleetSample{Nodes: len(samples)}
	if len(samples) == 0 {
		return fs
	}
	fs.T = samples[0].T

	if cap(m.tails) < len(samples) {
		m.tails = make([]float64, len(samples))
	}
	tails := m.tails[:len(samples)]
	for i, s := range samples {
		tails[i] = s.TailLatency
		fs.OfferedRPS += s.OfferedRPS
		fs.AchievedRPS += s.AchievedRPS
		fs.Backlog += s.Backlog
		fs.PowerW += s.PowerW()
		fs.EnergyJ += s.EnergyJ
		if s.QoSMet() {
			fs.QoSMet++
		}
		tard := s.Tardiness()
		fs.MeanTardiness += tard
		if tard > fs.MaxTardiness {
			fs.MaxTardiness = tard
		}
		if s.TailLatency > fs.WorstTail {
			fs.WorstTail = s.TailLatency
		}
	}
	fs.MeanTardiness /= float64(len(samples))
	// The median sorts the scratch in place — same values, same sort,
	// same result as the copying stats.Percentile.
	sort.Float64s(tails)
	median, err := stats.PercentileSorted(tails, 0.5)
	if err == nil {
		fs.MedianTail = median
	}
	if fs.MedianTail > 0 {
		for _, s := range samples {
			if s.TailLatency > DefaultStragglerFactor*fs.MedianTail {
				fs.Stragglers++
			}
		}
	}
	return fs
}

// FleetTrace is an ordered sequence of fleet samples, one per
// monitoring interval.
type FleetTrace struct {
	Samples []FleetSample
}

// Add appends a fleet sample.
func (ft *FleetTrace) Add(s FleetSample) { ft.Samples = append(ft.Samples, s) }

// Len returns the number of intervals recorded.
func (ft *FleetTrace) Len() int { return len(ft.Samples) }

// QoSAttainment returns the fraction of node-intervals that met their
// QoS target across the whole run (the fleet-wide analogue of the
// paper's QoS guarantee).
func (ft *FleetTrace) QoSAttainment() float64 { return ft.Summarize().QoSAttainment }

// TotalEnergyJ returns the fleet's final cumulative energy.
func (ft *FleetTrace) TotalEnergyJ() float64 {
	if len(ft.Samples) == 0 {
		return 0
	}
	return ft.Samples[len(ft.Samples)-1].EnergyJ
}

// MeanPowerW averages fleet power across intervals.
func (ft *FleetTrace) MeanPowerW() float64 { return ft.Summarize().MeanPowerW }

// NodeIntervals sums the active node count over every recorded
// interval — the node-intervals the fleet consumed. For a static fleet
// this is nodes × intervals; an autoscaled fleet consumes fewer, which
// is exactly what elasticity saves.
func (ft *FleetTrace) NodeIntervals() int { return ft.Summarize().NodeIntervals }

// FleetSummary holds a cluster run's headline metrics.
type FleetSummary struct {
	Intervals int
	// Nodes is the peak active-node count over the run (the constant
	// fleet size when autoscaling is off).
	Nodes int
	// NodeIntervals is the active node-intervals consumed over the run.
	NodeIntervals   int
	QoSAttainment   float64
	TotalEnergyJ    float64
	MeanPowerW      float64
	TotalStragglers int
	PeakStragglers  int
	MeanOfferedRPS  float64
	MeanAchievedRPS float64
	// Mitigation and warm-up totals (cluster DES mode; zero otherwise).
	Hedges, HedgeWins, Steals, WarmupIntervals int
	// Request-path resilience totals (cluster DES mode with the
	// resilience layer enabled; zero otherwise).
	Retries, Timeouts, BreakerOpens, RateLimited, HedgeCancels int
	// Lost is the requests destroyed by injected node crashes (cluster
	// DES mode with fault injection enabled; zero otherwise).
	Lost int
	// LearningIntervals is the node-intervals spent in the learning
	// phase (cluster DES mode with learning enabled; zero otherwise).
	LearningIntervals int
}

// Summarize computes the headline fleet metrics in one pass over the
// samples.
func (ft *FleetTrace) Summarize() FleetSummary {
	sum := FleetSummary{Intervals: len(ft.Samples), TotalEnergyJ: ft.TotalEnergyJ()}
	if len(ft.Samples) == 0 {
		return sum
	}
	met := 0
	var power, off, ach float64
	for _, s := range ft.Samples {
		met += s.QoSMet
		sum.NodeIntervals += s.Nodes
		sum.Nodes = max(sum.Nodes, s.Nodes)
		power += s.PowerW
		off += s.OfferedRPS
		ach += s.AchievedRPS
		sum.TotalStragglers += s.Stragglers
		sum.PeakStragglers = max(sum.PeakStragglers, s.Stragglers)
		sum.Hedges += s.Hedges
		sum.HedgeWins += s.HedgeWins
		sum.Steals += s.Steals
		sum.WarmupIntervals += s.Warming
		sum.Retries += s.Retries
		sum.Timeouts += s.Timeouts
		sum.BreakerOpens += s.BreakerOpens
		sum.RateLimited += s.RateLimited
		sum.HedgeCancels += s.HedgeCancels
		sum.Lost += s.Lost
		sum.LearningIntervals += s.Learning
	}
	if sum.NodeIntervals > 0 {
		sum.QoSAttainment = float64(met) / float64(sum.NodeIntervals)
	}
	n := float64(len(ft.Samples))
	sum.MeanPowerW = power / n
	sum.MeanOfferedRPS = off / n
	sum.MeanAchievedRPS = ach / n
	return sum
}
