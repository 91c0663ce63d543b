package loadgen

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hipster/internal/names"
)

func allPatterns() []Pattern {
	tr, _ := NewTrace(10, []float64{0.1, 0.9, 0.4})
	return []Pattern{
		Constant{Frac: 0.5},
		DefaultDiurnal(),
		Ramp{From: 0.5, To: 1, RampSecs: 175, HoldSecs: 25},
		Spike{Base: 0.2, Peak: 0.9, EverySecs: 60, SpikeSecs: 5, Horizon: 600},
		tr,
	}
}

func TestAllPatternsBounded(t *testing.T) {
	for i, p := range allPatterns() {
		f := func(tRaw float64) bool {
			tt := math.Mod(math.Abs(tRaw), 1e6)
			l := p.LoadAt(tt)
			return l >= 0 && l <= 1 && !math.IsNaN(l)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("pattern %d out of bounds: %v", i, err)
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	d := DefaultDiurnal()
	var min, max, sum float64 = 2, -1, 0
	n := int(d.PeriodSecs)
	for i := 0; i < n; i++ {
		l := d.LoadAt(float64(i))
		min = math.Min(min, l)
		max = math.Max(max, l)
		sum += l
	}
	if min > 0.10 {
		t.Errorf("diurnal trough %v, want <= 10%% (paper: load falls to ~5%%)", min)
	}
	if max < 0.90 {
		t.Errorf("diurnal peak %v, want >= 90%%", max)
	}
	mean := sum / float64(n)
	if mean < 0.15 || mean > 0.55 {
		t.Errorf("diurnal mean %v outside plausible range", mean)
	}
	// Periodicity.
	if got, want := d.LoadAt(100), d.LoadAt(100+d.PeriodSecs); math.Abs(got-want) > 1e-12 {
		t.Errorf("diurnal not periodic: %v vs %v", got, want)
	}
	if d.Duration() != d.PeriodSecs {
		t.Errorf("1-day duration = %v", d.Duration())
	}
}

func TestDiurnalPeakShare(t *testing.T) {
	// The calibrated diurnal keeps load above ~2/3 of maximum for
	// roughly 15-20%% of the day, matching the violation budgets of
	// the paper's static-small baseline.
	d := DefaultDiurnal()
	over := 0
	n := int(d.PeriodSecs)
	for i := 0; i < n; i++ {
		if d.LoadAt(float64(i)) > 0.67 {
			over++
		}
	}
	frac := float64(over) / float64(n)
	if frac < 0.08 || frac > 0.30 {
		t.Errorf("time above 67%% load = %v, want 8-30%%", frac)
	}
}

func TestDiurnalStartPhase(t *testing.T) {
	base := DefaultDiurnal()
	shifted := base
	shifted.StartPhase = 0.25
	if math.Abs(shifted.LoadAt(0)-base.LoadAt(0.25*base.PeriodSecs)) > 1e-12 {
		t.Fatal("StartPhase should shift the day")
	}
}

func TestRamp(t *testing.T) {
	r := Ramp{From: 0.5, To: 1.0, RampSecs: 100, HoldSecs: 50, StartSecs: 10}
	if got := r.LoadAt(0); got != 0.5 {
		t.Errorf("lead-in load = %v", got)
	}
	if got := r.LoadAt(60); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("mid-ramp load = %v, want 0.75", got)
	}
	if got := r.LoadAt(500); got != 1.0 {
		t.Errorf("post-ramp load = %v", got)
	}
	if got := r.Duration(); got != 160 {
		t.Errorf("duration = %v", got)
	}
}

func TestSpike(t *testing.T) {
	s := Spike{Base: 0.3, Peak: 0.9, EverySecs: 100, SpikeSecs: 10, Horizon: 1000}
	if got := s.LoadAt(5); got != 0.9 {
		t.Errorf("in-spike load = %v", got)
	}
	if got := s.LoadAt(50); got != 0.3 {
		t.Errorf("base load = %v", got)
	}
	if got := s.LoadAt(105); got != 0.9 {
		t.Errorf("second spike load = %v", got)
	}
	if s.Duration() != 1000 {
		t.Errorf("duration = %v", s.Duration())
	}
}

func TestTraceInterpolation(t *testing.T) {
	tr, err := NewTrace(10, []float64{0.0, 1.0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ tt, want float64 }{
		{0, 0}, {5, 0.5}, {10, 1.0}, {15, 0.75}, {20, 0.5}, {100, 0.5}, {-1, 0},
	}
	for _, c := range cases {
		if got := tr.LoadAt(c.tt); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("trace(%v) = %v, want %v", c.tt, got, c.want)
		}
	}
	if tr.Duration() != 20 {
		t.Errorf("duration = %v", tr.Duration())
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(0, []float64{0, 1}); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := NewTrace(1, []float64{0.5}); err == nil {
		t.Error("single sample should fail")
	}
	// Every sample outside [0, 1] fails wherever it sits, NaN included
	// (it fails both range comparisons; a NaN load hangs a DES run).
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5} {
		for pos := 0; pos < 5; pos++ {
			samples := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
			samples[pos] = bad
			if _, err := NewTrace(1, samples); err == nil {
				t.Errorf("sample %v at position %d accepted", bad, pos)
			}
		}
	}
	// The trace must copy its input.
	in := []float64{0.1, 0.2}
	tr, _ := NewTrace(1, in)
	in[0] = 0.9
	if tr.LoadAt(0) != 0.1 {
		t.Error("trace aliases caller slice")
	}
}

// TestByName pins the name table every command and the tuner share:
// each form builds its documented pattern, a constant whose fraction
// does not parse names the pattern, and an unknown name wraps
// names.ErrUnknown and lists every valid name.
func TestByName(t *testing.T) {
	ok := []struct {
		name string
		want Pattern
	}{
		{"diurnal", DefaultDiurnal()},
		{"ramp", Ramp{From: 0.5, To: 1.0, RampSecs: 175, HoldSecs: 10}},
		{"spike", Spike{Base: 0.3, Peak: 0.9, EverySecs: 120, SpikeSecs: 20, Horizon: 1440}},
		{"constant:0.6", Constant{Frac: 0.6}},
		{"constant:1.5", Constant{Frac: 1.5}},
	}
	for _, c := range ok {
		got, err := ByName(c.name)
		if err != nil || got != c.want {
			t.Errorf("ByName(%q) = %#v, %v; want %#v", c.name, got, err, c.want)
		}
	}
	// A non-finite constant parses; CheckLoad refuses it at run time.
	if got, err := ByName("constant:NaN"); err != nil || CheckLoad(got.LoadAt(0), 0) == nil {
		t.Errorf("ByName(constant:NaN) = %#v, %v; want a pattern whose load CheckLoad refuses", got, err)
	}
	for _, bad := range []string{"constant:", "constant:half", "constant:0.5x"} {
		_, err := ByName(bad)
		if err == nil || !strings.Contains(err.Error(), "bad constant pattern") || errors.Is(err, names.ErrUnknown) {
			t.Errorf("ByName(%q): error %v, want a bad-constant error", bad, err)
		}
	}
	for _, unknown := range []string{"", "sawtooth", "constant", "Diurnal"} {
		_, err := ByName(unknown)
		if !errors.Is(err, names.ErrUnknown) {
			t.Fatalf("ByName(%q): error %v, want names.ErrUnknown", unknown, err)
		}
		for _, valid := range PatternNames() {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ByName(%q) error %q does not list %q", unknown, err, valid)
			}
		}
	}
}

// TestCheckLoad pins the load check every simulator applies: zero and
// overload pass, and anything that is not a finite value >= 0 fails
// with an error naming the load and the time.
func TestCheckLoad(t *testing.T) {
	for _, load := range []float64{0, 0.5, 1, 1.7} {
		if err := CheckLoad(load, 3); err != nil {
			t.Errorf("load %v rejected: %v", load, err)
		}
	}
	for _, load := range []float64{math.NaN(), -0.5, math.Inf(-1), math.Inf(1)} {
		err := CheckLoad(load, 3)
		want := fmt.Sprintf("pattern returned load %v at t=3; want a finite value >= 0", load)
		if err == nil || err.Error() != want {
			t.Errorf("load %v: error %v, want %q", load, err, want)
		}
	}
}

// durationOnly is a pattern whose natural horizon is d.
type durationOnly float64

func (durationOnly) LoadAt(float64) float64 { return 0.5 }
func (d durationOnly) Duration() float64    { return float64(d) }

func TestResolveHorizon(t *testing.T) {
	ok := []struct {
		pattern      Pattern
		horizon, got float64
	}{
		{DefaultDiurnal(), 0, 1440},     // 0 is the pattern's own length
		{DefaultDiurnal(), 60, 60},      // an explicit horizon wins
		{Constant{Frac: 0.5}, 0.5, 0.5}, // any finite positive horizon
		{Constant{Frac: 0.5}, math.MaxFloat64, math.MaxFloat64},
	}
	for _, c := range ok {
		if got, err := ResolveHorizon(c.pattern, c.horizon); err != nil || got != c.got {
			t.Errorf("ResolveHorizon(%v, %v) = %v, %v; want %v", c.pattern, c.horizon, got, err, c.got)
		}
	}
	bad := []struct {
		pattern Pattern
		horizon float64
		want    string
	}{
		{Constant{Frac: 0.5}, 0, "no horizon (unbounded pattern and no explicit duration)"},
		{DefaultDiurnal(), math.NaN(), "horizon NaN; want"},
		{DefaultDiurnal(), math.Inf(1), "horizon +Inf; want"},
		{DefaultDiurnal(), math.Inf(-1), "horizon -Inf; want"},
		{DefaultDiurnal(), -5, "horizon -5; want"},
		{durationOnly(math.NaN()), 0, "pattern duration NaN; want"},
		{durationOnly(math.Inf(1)), 0, "pattern duration +Inf; want"},
		{durationOnly(-1), 0, "pattern duration -1; want"},
	}
	for _, c := range bad {
		_, err := ResolveHorizon(c.pattern, c.horizon)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("ResolveHorizon(%v, %v): error %v, want one starting %q", c.pattern, c.horizon, err, c.want)
		}
	}
}
