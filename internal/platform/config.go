// Package platform models the evaluation platform of the paper: an ARM
// Juno R1 developer board with a 64-bit big.LITTLE processor (two
// out-of-order Cortex-A57 "big" cores and four in-order Cortex-A53
// "small" cores), per-cluster DVFS and energy-meter registers. Of the
// per-core performance counters only the idle erratum is modelled, as
// one flag the engine computes each interval.
//
// The model is calibrated against the paper's Table 2 (power and IPS of
// each cluster under a compute-only stress microbenchmark) and exposes
// exactly the knobs the Hipster runtime manipulates: the core mapping of
// the latency-critical workload, the big-cluster DVFS setting, and the
// placement of batch jobs on the remaining cores.
package platform

import (
	"fmt"
	"sort"
)

// CoreKind distinguishes the two core types of a big.LITTLE platform.
type CoreKind int

const (
	// Big is a high-performance out-of-order core (Cortex-A57 on Juno).
	Big CoreKind = iota
	// Small is a low-power in-order core (Cortex-A53 on Juno).
	Small
)

// String returns "big" or "small".
func (k CoreKind) String() string {
	switch k {
	case Big:
		return "big"
	case Small:
		return "small"
	default:
		return fmt.Sprintf("CoreKind(%d)", int(k))
	}
}

// FreqMHz is a DVFS operating point in megahertz.
type FreqMHz int

// GHz renders the frequency in the paper's "0.90" style.
func (f FreqMHz) GHz() string { return fmt.Sprintf("%.2f", float64(f)/1000) }

// Config is one schedulable configuration for the latency-critical
// workload: the number of big and small cores allocated to it and the
// big-cluster DVFS setting. The small cluster on Juno R1 runs at a fixed
// frequency, so it carries no DVFS field; the platform spec supplies it.
//
// The 13 canonical configurations of the paper (Figure 2c) are produced
// by Configs.
type Config struct {
	NBig    int
	NSmall  int
	BigFreq FreqMHz
}

// String renders the paper's notation, e.g. "2S-0.65", "1B3S-0.90",
// "2B-1.15". Small-only configurations print the small-cluster frequency.
func (c Config) String() string {
	switch {
	case c.NBig == 0 && c.NSmall == 0:
		return "idle"
	case c.NBig == 0:
		return fmt.Sprintf("%dS-0.65", c.NSmall)
	case c.NSmall == 0:
		return fmt.Sprintf("%dB-%s", c.NBig, c.BigFreq.GHz())
	default:
		return fmt.Sprintf("%dB%dS-%s", c.NBig, c.NSmall, c.BigFreq.GHz())
	}
}

// Cores returns the total number of cores allocated to the LC workload.
func (c Config) Cores() int { return c.NBig + c.NSmall }

// UsesBig reports whether any big core is allocated.
func (c Config) UsesBig() bool { return c.NBig > 0 }

// UsesSmall reports whether any small core is allocated.
func (c Config) UsesSmall() bool { return c.NSmall > 0 }

// SingleClusterOnly reports whether the LC workload occupies exactly one
// core type. Algorithm 2 boosts the other cluster's DVFS for batch work
// in that case (HipsterCo).
func (c Config) SingleClusterOnly() bool {
	return (c.NBig == 0) != (c.NSmall == 0)
}

// Validate checks the configuration against a platform spec.
func (c Config) Validate(spec *Spec) error {
	if c.NBig < 0 || c.NSmall < 0 {
		return fmt.Errorf("platform: negative core count in %v", c)
	}
	if c.NBig == 0 && c.NSmall == 0 {
		return fmt.Errorf("platform: config allocates no cores")
	}
	if c.NBig > spec.Big.Cores {
		return fmt.Errorf("platform: %d big cores exceed %d available", c.NBig, spec.Big.Cores)
	}
	if c.NSmall > spec.Small.Cores {
		return fmt.Errorf("platform: %d small cores exceed %d available", c.NSmall, spec.Small.Cores)
	}
	if c.NBig > 0 && !spec.Big.HasFreq(c.BigFreq) {
		return fmt.Errorf("platform: big cluster has no %d MHz operating point", c.BigFreq)
	}
	return nil
}

// Normalize returns the configuration with the big frequency pinned to
// the cluster minimum when no big core is in use, so that semantically
// identical configurations compare equal.
func (c Config) Normalize(spec *Spec) Config {
	if c.NBig == 0 {
		c.BigFreq = spec.Big.MinFreq()
	}
	return c
}

// MigrationDistance counts how many cores change hands between two
// configurations: the sum over core kinds of |Δcount|. DVFS-only changes
// have distance zero; the engine uses this to charge migration penalties
// (core migrations are far costlier than DVFS changes, per Kasture et
// al., as cited by the paper).
func MigrationDistance(a, b Config) int {
	d := abs(a.NBig-b.NBig) + abs(a.NSmall-b.NSmall)
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Configs enumerates the canonical configuration space of the paper
// (Figure 2c): {1S,2S,3S,4S} at the fixed small frequency, plus
// {2B, 1B3S, 2B2S} at each big-cluster DVFS point. For the Juno R1 spec
// this yields the paper's 13 states. The slice is ordered small-only
// first (ascending core count), then big-bearing configurations grouped
// by mapping in ascending frequency; callers that need a power ordering
// should use OrderByStressPower.
func Configs(spec *Spec) []Config {
	var out []Config
	for n := 1; n <= spec.Small.Cores; n++ {
		out = append(out, Config{NBig: 0, NSmall: n, BigFreq: spec.Big.MinFreq()})
	}
	mappings := []Config{
		{NBig: 1, NSmall: spec.Small.Cores - 1},
		{NBig: spec.Big.Cores, NSmall: spec.Small.Cores - 2},
		{NBig: spec.Big.Cores, NSmall: 0},
	}
	for _, m := range mappings {
		if m.NSmall < 0 {
			continue
		}
		for _, f := range spec.Big.Freqs {
			out = append(out, Config{NBig: m.NBig, NSmall: m.NSmall, BigFreq: f})
		}
	}
	return out
}

// OrderByStressPower returns the configurations sorted by modelled
// system power under the compute-only stress microbenchmark (all
// allocated cores fully utilised), ascending; ties break by capacity
// then by name for determinism. This is the predefined state-machine
// ordering of §3.3, "approximately from highest to lowest power
// efficiency".
//
// Each configuration's power and capacity keys are evaluated once,
// before the sort; the name, needed only on a tie of both, is rendered
// in the comparison.
func OrderByStressPower(spec *Spec, configs []Config) []Config {
	type keyed struct {
		cfg        Config
		power, ips float64
	}
	keys := make([]keyed, len(configs))
	for i, c := range configs {
		keys[i] = keyed{cfg: c, power: StressPower(spec, c).Total, ips: StressIPS(spec, c)}
	}
	sort.SliceStable(keys, func(i, j int) bool {
		ki, kj := &keys[i], &keys[j]
		if ki.power != kj.power {
			return ki.power < kj.power
		}
		if ki.ips != kj.ips {
			return ki.ips < kj.ips
		}
		return ki.cfg.String() < kj.cfg.String()
	})
	out := make([]Config, len(keys))
	for i := range keys {
		out[i] = keys[i].cfg
	}
	return out
}
