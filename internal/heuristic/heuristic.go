// Package heuristic implements Hipster's heuristic mapper (§3.3): the
// same danger/safe feedback controller as Octopus-Man, but over the full
// heterogeneous configuration space — mixed big+small core mappings and
// DVFS settings — ordered approximately from lowest to highest power as
// characterised by the stress microbenchmark.
//
// Used alone it is the "Hipster's heuristic" policy of Figure 5 and
// Table 3; inside the Hipster manager it drives the learning phase that
// populates the RL lookup table.
package heuristic

import (
	"slices"

	"hipster/internal/platform"
	"hipster/internal/policy"
)

// Params configure the controller.
type Params struct {
	// QoSD / QoSS are the danger and safe thresholds (fractions of the
	// QoS target), empirically computed the same way as Octopus-Man's.
	QoSD float64
	QoSS float64
	// StartAtTop starts from the most powerful configuration.
	StartAtTop bool
	// Cooldown suppresses down-transitions for this many intervals
	// after a danger-triggered climb (oscillation damping).
	Cooldown int
}

// DefaultParams returns the defaults used by the experiments.
func DefaultParams() Params {
	return Params{QoSD: 0.85, QoSS: 0.55, StartAtTop: true, Cooldown: 8}
}

// Mapper is the heuristic policy.
type Mapper struct {
	ladder *policy.Ladder
}

// Ladder returns the full configuration space ordered by modelled
// stress-microbenchmark power, ascending — the §3.3 state ordering. The
// slice is a copy the caller owns.
func Ladder(spec *platform.Spec) []platform.Config {
	return slices.Clone(spec.StressLadder())
}

// PaperLadder returns the exact empirical ordering of Figure 2c, for
// byte-for-byte replication of the paper's state machine on the Juno R1
// configuration space. It falls back to the modelled ordering on
// platforms with a different configuration space.
func PaperLadder(spec *platform.Spec) []platform.Config {
	want := []string{
		"1S-0.65", "2S-0.65", "3S-0.65",
		"2B-0.60", "1B3S-0.60", "4S-0.65", "2B2S-0.60",
		"1B3S-0.90", "2B-0.90", "2B2S-0.90",
		"1B3S-1.15", "2B2S-1.15", "2B-1.15",
	}
	all := platform.Configs(spec)
	byName := make(map[string]platform.Config, len(all))
	for _, c := range all {
		byName[c.String()] = c
	}
	out := make([]platform.Config, 0, len(want))
	for _, n := range want {
		c, ok := byName[n]
		if !ok {
			return Ladder(spec)
		}
		out = append(out, c)
	}
	if len(out) != len(all) {
		return Ladder(spec)
	}
	return out
}

// New builds the heuristic mapper with the modelled ladder order. Every
// mapper on one spec orders its states from the spec's one shared
// ladder, which NewWithLadder copies.
func New(spec *platform.Spec, p Params) (*Mapper, error) {
	return NewWithLadder(spec.StressLadder(), p)
}

// NewWithLadder builds the mapper over an explicit state order.
func NewWithLadder(states []platform.Config, p Params) (*Mapper, error) {
	start := 0
	if p.StartAtTop {
		start = len(states) - 1
	}
	l, err := policy.NewLadder(states, p.QoSD, p.QoSS, start)
	if err != nil {
		return nil, err
	}
	l.Cooldown = p.Cooldown
	return &Mapper{ladder: l}, nil
}

// MustNew is New that panics on error.
func MustNew(spec *platform.Spec, p Params) *Mapper {
	m, err := New(spec, p)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements policy.Policy.
func (m *Mapper) Name() string { return "hipster-heuristic" }

// Decide implements policy.Policy.
func (m *Mapper) Decide(obs policy.Observation) platform.Config {
	return m.ladder.Step(obs)
}

// Reset implements policy.Policy.
func (m *Mapper) Reset() { m.ladder.Reset() }

// States exposes the ladder order.
func (m *Mapper) States() []platform.Config { return m.ladder.States }

// Index exposes the current ladder position.
func (m *Mapper) Index() int { return m.ladder.Index() }

// SetIndex repositions the controller (used by the Hipster manager when
// re-entering the learning phase from an exploitation decision).
func (m *Mapper) SetIndex(i int) { m.ladder.SetIndex(i) }

// IndexOf locates a configuration in the ladder, or -1.
func (m *Mapper) IndexOf(c platform.Config) int { return m.ladder.IndexOf(c) }
