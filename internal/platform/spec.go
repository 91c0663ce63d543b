package platform

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// ClusterSpec describes one core cluster (big or small) of the platform:
// its topology, DVFS operating points, voltage curve, stress-benchmark
// performance, and calibrated power parameters.
type ClusterSpec struct {
	Name  string
	Kind  CoreKind
	Cores int

	// Freqs lists the DVFS operating points, ascending. The small
	// cluster on Juno R1 has a single fixed point (0.65 GHz).
	Freqs []FreqMHz
	// Volt maps each operating point to its supply voltage in volts.
	Volt map[FreqMHz]float64

	// PeakCoreIPS is the instructions per second of one core running the
	// compute-only stress microbenchmark at the maximum frequency.
	PeakCoreIPS float64
	// AllCoresIPS is the aggregate IPS with every core of the cluster
	// running the stress microbenchmark at maximum frequency. It is
	// slightly below Cores*PeakCoreIPS on real hardware.
	AllCoresIPS float64

	// StaticWMax is the cluster-level static power (watts) with the
	// cluster powered at the maximum frequency/voltage point.
	StaticWMax float64
	// DynWMax is the dynamic power (watts) of one fully-utilised core at
	// the maximum frequency/voltage point.
	DynWMax float64
	// GatedW is the residual power when the cluster is power-gated
	// (no cores assigned and CPUidle enabled).
	GatedW float64
	// IdleActiveFrac is the fraction of DynWMax an idle-but-awake core
	// burns when CPUidle is disabled (the paper disables CPUidle for
	// HipsterCo to work around the Juno perf-counter bug).
	IdleActiveFrac float64
}

// MaxFreq returns the highest operating point.
func (c *ClusterSpec) MaxFreq() FreqMHz { return c.Freqs[len(c.Freqs)-1] }

// MinFreq returns the lowest operating point.
func (c *ClusterSpec) MinFreq() FreqMHz { return c.Freqs[0] }

// HasFreq reports whether f is a valid operating point for the cluster.
func (c *ClusterSpec) HasFreq(f FreqMHz) bool {
	for _, g := range c.Freqs {
		if g == f {
			return true
		}
	}
	return false
}

// VoltAt returns the supply voltage for an operating point; it panics on
// unknown frequencies, which indicates a policy bug upstream.
func (c *ClusterSpec) VoltAt(f FreqMHz) float64 {
	v, ok := c.Volt[f]
	if !ok {
		panic(fmt.Sprintf("platform: cluster %s has no voltage for %d MHz", c.Name, f))
	}
	return v
}

// vratio2 returns (V(f)/V(fmax))^2, the voltage-scaling factor applied
// to dynamic power.
func (c *ClusterSpec) vratio2(f FreqMHz) float64 {
	r := c.VoltAt(f) / c.VoltAt(c.MaxFreq())
	return r * r
}

// StaticW returns the cluster static power at frequency f. Leakage is
// modelled as approximately linear in supply voltage over the narrow
// DVFS voltage range of the platform.
func (c *ClusterSpec) StaticW(f FreqMHz) float64 {
	return c.StaticWMax * c.VoltAt(f) / c.VoltAt(c.MaxFreq())
}

// DynW returns the per-core fully-utilised dynamic power at frequency f
// (classic CV^2f scaling).
func (c *ClusterSpec) DynW(f FreqMHz) float64 {
	return c.DynWMax * c.vratio2(f) * float64(f) / float64(c.MaxFreq())
}

// CoreIPS returns one core's stress-benchmark IPS at frequency f
// (compute-only work scales linearly with frequency).
func (c *ClusterSpec) CoreIPS(f FreqMHz) float64 {
	return c.PeakCoreIPS * float64(f) / float64(c.MaxFreq())
}

// TotalIPS returns the aggregate stress-benchmark IPS of n cores at
// frequency f, applying the measured multi-core scaling loss.
func (c *ClusterSpec) TotalIPS(n int, f FreqMHz) float64 {
	if n <= 0 {
		return 0
	}
	if n > c.Cores {
		n = c.Cores
	}
	raw := float64(n) * c.CoreIPS(f)
	if c.Cores == 1 || n == 1 {
		return raw
	}
	fullLoss := 1 - c.AllCoresIPS/(float64(c.Cores)*c.PeakCoreIPS)
	loss := fullLoss * float64(n-1) / float64(c.Cores-1)
	return raw * (1 - loss)
}

// Spec describes the whole platform. A spec must not change after its
// first use: what is derived from it is memoized against it, here (the
// stress-ordered ladder) and in the workload models (analytic rates,
// keyed by the spec's pointer).
type Spec struct {
	Name  string
	Big   ClusterSpec
	Small ClusterSpec

	// RestBaseW is the load-independent power of everything outside the
	// core clusters (memory controllers, interconnect, regulators).
	RestBaseW float64
	// RestActivityW scales with delivered instruction throughput,
	// modelling DRAM and interconnect activity.
	RestActivityW float64
	// TDPW is the thermal design power used by the HipsterIn power
	// reward (Algorithm 1: Powerreward = TDP/Power).
	TDPW float64

	// ladder memoizes StressLadder.
	ladder atomic.Pointer[[]Config]
}

// StressLadder returns the spec's configuration space (Configs) ordered
// by OrderByStressPower: the §3.3 state-machine ladder. It is computed
// on first use and shared by every later caller, so it is read-only;
// heuristic.Ladder returns a copy its caller owns. Concurrent first
// calls agree on one slice.
func (s *Spec) StressLadder() []Config {
	if p := s.ladder.Load(); p != nil {
		return *p
	}
	order := OrderByStressPower(s, Configs(s))
	if s.ladder.CompareAndSwap(nil, &order) {
		return order
	}
	return *s.ladder.Load()
}

// MaxSystemIPS returns the aggregate stress-benchmark IPS with every
// core at maximum frequency; this is the maxIPS(B)+maxIPS(S) denominator
// of the HipsterCo throughput reward.
func (s *Spec) MaxSystemIPS() float64 {
	return s.Big.AllCoresIPS + s.Small.AllCoresIPS
}

// Cluster returns the cluster spec for a core kind.
func (s *Spec) Cluster(k CoreKind) *ClusterSpec {
	if k == Big {
		return &s.Big
	}
	return &s.Small
}

// TotalCores returns the number of cores on the platform.
func (s *Spec) TotalCores() int { return s.Big.Cores + s.Small.Cores }

// Validate sanity-checks the specification.
func (s *Spec) Validate() error {
	for _, c := range []*ClusterSpec{&s.Big, &s.Small} {
		if c.Cores <= 0 {
			return fmt.Errorf("platform: cluster %s has no cores", c.Name)
		}
		if len(c.Freqs) == 0 {
			return fmt.Errorf("platform: cluster %s has no operating points", c.Name)
		}
		if !sort.SliceIsSorted(c.Freqs, func(i, j int) bool { return c.Freqs[i] < c.Freqs[j] }) {
			return fmt.Errorf("platform: cluster %s frequencies not ascending", c.Name)
		}
		for _, f := range c.Freqs {
			if _, ok := c.Volt[f]; !ok {
				return fmt.Errorf("platform: cluster %s missing voltage for %d MHz", c.Name, f)
			}
		}
		if c.PeakCoreIPS <= 0 || c.AllCoresIPS <= 0 {
			return fmt.Errorf("platform: cluster %s has non-positive IPS calibration", c.Name)
		}
		if c.AllCoresIPS > float64(c.Cores)*c.PeakCoreIPS+1 {
			return fmt.Errorf("platform: cluster %s all-cores IPS exceeds linear scaling", c.Name)
		}
		if c.StaticWMax < 0 || c.DynWMax <= 0 {
			return fmt.Errorf("platform: cluster %s has invalid power calibration", c.Name)
		}
	}
	if s.TDPW <= 0 {
		return fmt.Errorf("platform: non-positive TDP")
	}
	return nil
}

// JunoR1 returns the model of the ARM Juno R1 board used throughout the
// paper, calibrated so the stress-microbenchmark characterisation
// reproduces Table 2:
//
//	                     Power (W)            Perf (IPS x 1e6)
//	Core type (GHz)    All cores  One core   All cores  One core
//	Big A57 (1.15)       2.30       1.62       4260       2138
//	Small A53 (0.65)     1.43       0.95       3298        826
//
// Table 2 reports system power (clusters plus rest-of-system); the
// calibrated per-cluster constants below reproduce those four anchor
// points through SystemPower with an activity-scaled rest-of-system
// term (the paper notes the rest of the system draws about as much as a
// fully-utilised big core, 0.76 W).
func JunoR1() *Spec {
	s := &Spec{
		Name: "ARM Juno R1",
		Big: ClusterSpec{
			Name:  "Cortex-A57",
			Kind:  Big,
			Cores: 2,
			Freqs: []FreqMHz{600, 900, 1150},
			Volt: map[FreqMHz]float64{
				600:  0.90,
				900:  0.97,
				1150: 1.00,
			},
			PeakCoreIPS:    2138e6,
			AllCoresIPS:    4260e6,
			StaticWMax:     0.4390,
			DynWMax:        0.5958,
			GatedW:         0.28, // WFI, not power-gated, on the paper's board
			IdleActiveFrac: 0.15,
		},
		Small: ClusterSpec{
			Name:  "Cortex-A53",
			Kind:  Small,
			Cores: 4,
			Freqs: []FreqMHz{650},
			Volt: map[FreqMHz]float64{
				650: 0.82,
			},
			PeakCoreIPS:    826e6,
			AllCoresIPS:    3298e6,
			StaticWMax:     0.1100,
			DynWMax:        0.1273,
			GatedW:         0.10,
			IdleActiveFrac: 0.15,
		},
		RestBaseW:     0.40,
		RestActivityW: 0.30,
		TDPW:          4.5,
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}
