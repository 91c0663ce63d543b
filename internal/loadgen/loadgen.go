// Package loadgen generates the client load patterns used by the
// paper's experiments: the diurnal pattern of Figure 1 (a 36-hour
// production trace compressed to minutes), the linear ramp of Figure 8,
// sudden spikes, constants, and replayed traces. Patterns yield the load
// as a fraction of the workload's maximum capacity.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"hipster/internal/names"
)

// Pattern yields the offered load at time t (seconds) as a fraction of
// maximum capacity. Implementations must be deterministic; stochastic
// jitter is added by the engine from its seeded stream.
type Pattern interface {
	// LoadAt returns the load fraction at time t, which must be finite
	// and non-negative; the built-in patterns clamp it to [0, 1].
	LoadAt(t float64) float64
	// Duration returns the natural horizon of the pattern in seconds
	// (0 = unbounded).
	Duration() float64
}

// CheckLoad reports an error naming the load when a pattern's load
// fraction at time t is not a finite value >= 0 (above 1 is legal
// overload). Every simulator checks each load it reads before using
// it: a NaN or infinite load would otherwise turn energy into NaN or
// hang a request-level run.
func CheckLoad(load, t float64) error {
	if !(load >= 0) || math.IsInf(load, 1) {
		return fmt.Errorf("pattern returned load %v at t=%v; want a finite value >= 0", load, t)
	}
	return nil
}

// ResolveHorizon resolves a run's horizon in seconds: 0 means the
// pattern's natural duration. It reports an error naming the value
// when the horizon it resolves to is not a finite value > 0, so every
// simulator refuses a bad horizon the same way: a NaN horizon would
// run no interval and report an empty run, and an infinite one would
// never stop.
func ResolveHorizon(p Pattern, horizon float64) (float64, error) {
	what := "horizon"
	if horizon == 0 {
		horizon, what = p.Duration(), "pattern duration"
		if horizon == 0 {
			return 0, errors.New("no horizon (unbounded pattern and no explicit duration)")
		}
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return 0, fmt.Errorf("%s %v; want a finite number of seconds > 0 (0 = the pattern's own length)", what, horizon)
	}
	return horizon, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Constant is a flat load.
type Constant struct {
	Frac float64
}

// LoadAt implements Pattern.
func (c Constant) LoadAt(float64) float64 { return clamp01(c.Frac) }

// Duration implements Pattern (unbounded).
func (c Constant) Duration() float64 { return 0 }

// Diurnal models the day/night cycle observed at production data
// centers (Figure 1): load swings between Min and Max across each
// simulated day with a morning rise, an afternoon peak, an evening
// shoulder and a night trough. PeriodSecs maps one full day; the
// paper compresses one hour of trace to one minute, i.e. a 1440 s
// period for a 24-hour day.
type Diurnal struct {
	PeriodSecs float64
	Min        float64
	Max        float64
	// PeakSharpness (>= 1) concentrates the high-load region into a
	// shorter afternoon window, as in production traces where peak
	// capacity is approached for only a small part of the day. The
	// default (0 = 2.6) keeps load above ~2/3 of maximum for roughly
	// 15% of the day.
	PeakSharpness float64
	// StartPhase shifts where in the day the replay begins (0 =
	// midnight, 0.25 = mid-morning rise). The paper's replayed trace
	// starts on the morning rise.
	StartPhase float64
	// Days is the number of periods the pattern spans (for Duration);
	// zero means unbounded.
	Days int
}

// DefaultDiurnal matches the paper's setup: load between 5% and 95% of
// maximum capacity over a 1440-second compressed day.
func DefaultDiurnal() Diurnal {
	return Diurnal{PeriodSecs: 1440, Min: 0.05, Max: 0.95, Days: 1}
}

// LoadAt implements Pattern: a two-harmonic day curve producing a
// daytime plateau, an afternoon peak and a deep night trough,
// qualitatively matching the Google/Facebook diurnal traces the paper
// replays.
func (d Diurnal) LoadAt(t float64) float64 {
	if d.PeriodSecs <= 0 {
		return clamp01(d.Min)
	}
	phase := math.Mod(t/d.PeriodSecs+d.StartPhase, 1) // 0 = midnight
	// Base daily sinusoid with trough at ~04:00 and peak at ~16:00.
	base := 0.5 - 0.5*math.Cos(2*math.Pi*(phase-1.0/6))
	// Second harmonic sharpens the afternoon peak and flattens the
	// morning shoulder.
	base += 0.18 * math.Sin(4*math.Pi*(phase-1.0/6))
	base = clamp01(base / 1.08)
	sharp := d.PeakSharpness
	if sharp <= 0 {
		sharp = 2.6
	}
	base = math.Pow(base, sharp)
	return clamp01(d.Min + (d.Max-d.Min)*base)
}

// Duration implements Pattern.
func (d Diurnal) Duration() float64 {
	if d.Days <= 0 {
		return 0
	}
	return float64(d.Days) * d.PeriodSecs
}

// Ramp grows linearly from From to To over RampSecs, then holds To.
// Figure 8 uses 50% -> 100% over 175 seconds.
type Ramp struct {
	From      float64
	To        float64
	RampSecs  float64
	HoldSecs  float64
	StartSecs float64 // optional flat lead-in at From
}

// LoadAt implements Pattern.
func (r Ramp) LoadAt(t float64) float64 {
	switch {
	case t < r.StartSecs:
		return clamp01(r.From)
	case t < r.StartSecs+r.RampSecs:
		f := (t - r.StartSecs) / r.RampSecs
		return clamp01(r.From + (r.To-r.From)*f)
	default:
		return clamp01(r.To)
	}
}

// Duration implements Pattern.
func (r Ramp) Duration() float64 { return r.StartSecs + r.RampSecs + r.HoldSecs }

// Spike holds Base load with rectangular bursts to Peak of SpikeSecs
// every EverySecs (sudden load spikes, Dean & Barroso style).
type Spike struct {
	Base      float64
	Peak      float64
	EverySecs float64
	SpikeSecs float64
	Horizon   float64
}

// LoadAt implements Pattern.
func (s Spike) LoadAt(t float64) float64 {
	if s.EverySecs <= 0 {
		return clamp01(s.Base)
	}
	if math.Mod(t, s.EverySecs) < s.SpikeSecs {
		return clamp01(s.Peak)
	}
	return clamp01(s.Base)
}

// Duration implements Pattern.
func (s Spike) Duration() float64 { return s.Horizon }

// Trace replays a sampled load trace with linear interpolation between
// samples spaced StepSecs apart.
type Trace struct {
	StepSecs float64
	Samples  []float64
}

// NewTrace validates and builds a trace pattern.
func NewTrace(stepSecs float64, samples []float64) (Trace, error) {
	if stepSecs <= 0 {
		return Trace{}, errors.New("loadgen: non-positive trace step")
	}
	if len(samples) < 2 {
		return Trace{}, errors.New("loadgen: trace needs at least two samples")
	}
	for i, s := range samples {
		if !(s >= 0 && s <= 1) { // NaN fails both comparisons
			return Trace{}, fmt.Errorf("loadgen: trace sample %d out of [0,1]: %v", i, s)
		}
	}
	cp := make([]float64, len(samples))
	copy(cp, samples)
	return Trace{StepSecs: stepSecs, Samples: cp}, nil
}

// LoadAt implements Pattern.
func (tr Trace) LoadAt(t float64) float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	if t <= 0 {
		return tr.Samples[0]
	}
	pos := t / tr.StepSecs
	i := int(pos)
	if i >= len(tr.Samples)-1 {
		return tr.Samples[len(tr.Samples)-1]
	}
	f := pos - float64(i)
	return clamp01(tr.Samples[i]*(1-f) + tr.Samples[i+1]*f)
}

// Duration implements Pattern.
func (tr Trace) Duration() float64 {
	if len(tr.Samples) == 0 {
		return 0
	}
	return float64(len(tr.Samples)-1) * tr.StepSecs
}

// PatternNames lists the pattern names ByName accepts, in presentation
// order; constant takes its load fraction after the colon.
func PatternNames() []string { return []string{"diurnal", "ramp", "constant:<frac>", "spike"} }

// ByName returns a named pattern: the paper's diurnal day
// (DefaultDiurnal), the Figure 8 ramp from 50% to 100% over 175 s,
// 20-s spikes from 30% to 90% every 120 s over a 1440-s day, or a flat
// constant:<frac>. An unknown name returns an error wrapping
// names.ErrUnknown that lists the valid names. A constant's fraction is
// taken as parsed: a non-finite one is refused by CheckLoad when a
// simulator reads it.
func ByName(name string) (Pattern, error) {
	switch {
	case name == "diurnal":
		return DefaultDiurnal(), nil
	case name == "ramp":
		return Ramp{From: 0.5, To: 1.0, RampSecs: 175, HoldSecs: 10}, nil
	case name == "spike":
		return Spike{Base: 0.3, Peak: 0.9, EverySecs: 120, SpikeSecs: 20, Horizon: 1440}, nil
	case strings.HasPrefix(name, "constant:"):
		frac, err := strconv.ParseFloat(strings.TrimPrefix(name, "constant:"), 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: bad constant pattern %q: %w", name, err)
		}
		return Constant{Frac: frac}, nil
	}
	return nil, names.Unknown("loadgen", "pattern", name, PatternNames())
}
