package platform

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func juno(t *testing.T) *Spec {
	t.Helper()
	return JunoR1()
}

func TestTable2Anchors(t *testing.T) {
	// The power model must reproduce the paper's Table 2 by
	// construction: system power and stress-benchmark IPS of each
	// cluster with one and all cores busy at the maximum DVFS point.
	rows := Characterize(juno(t))
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	type want struct{ all, one, allIPS, oneIPS float64 }
	wants := []want{
		{2.30, 1.62, 4260e6, 2138e6},
		{1.43, 0.95, 3298e6, 826e6},
	}
	for i, w := range wants {
		r := rows[i]
		if math.Abs(r.AllCoresW-w.all) > 0.01 {
			t.Errorf("row %d all-cores power %v, want %v", i, r.AllCoresW, w.all)
		}
		if math.Abs(r.OneCoreW-w.one) > 0.01 {
			t.Errorf("row %d one-core power %v, want %v", i, r.OneCoreW, w.one)
		}
		if math.Abs(r.AllCoresIPS-w.allIPS) > 1e6 {
			t.Errorf("row %d all-cores IPS %v, want %v", i, r.AllCoresIPS, w.allIPS)
		}
		if math.Abs(r.OneCoreIPS-w.oneIPS) > 1e6 {
			t.Errorf("row %d one-core IPS %v, want %v", i, r.OneCoreIPS, w.oneIPS)
		}
	}
}

func TestConfigsEnumerates13States(t *testing.T) {
	spec := juno(t)
	configs := Configs(spec)
	if len(configs) != 13 {
		t.Fatalf("expected the paper's 13 configurations, got %d", len(configs))
	}
	seen := map[string]bool{}
	for _, c := range configs {
		if err := c.Validate(spec); err != nil {
			t.Errorf("invalid enumerated config %v: %v", c, err)
		}
		if seen[c.String()] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c.String()] = true
	}
	for _, name := range []string{
		"1S-0.65", "2S-0.65", "3S-0.65", "4S-0.65",
		"1B3S-0.60", "1B3S-0.90", "1B3S-1.15",
		"2B2S-0.60", "2B2S-0.90", "2B2S-1.15",
		"2B-0.60", "2B-0.90", "2B-1.15",
	} {
		if !seen[name] {
			t.Errorf("missing configuration %s", name)
		}
	}
}

func TestConfigStringNotation(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{NSmall: 2}, "2S-0.65"},
		{Config{NBig: 2, BigFreq: 1150}, "2B-1.15"},
		{Config{NBig: 1, NSmall: 3, BigFreq: 900}, "1B3S-0.90"},
		{Config{}, "idle"},
	}
	for _, c := range cases {
		if got := c.cfg.String(); got != c.want {
			t.Errorf("%#v -> %q, want %q", c.cfg, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	spec := juno(t)
	bad := []Config{
		{},                                  // no cores
		{NBig: 3, BigFreq: 1150},            // too many big
		{NSmall: 5},                         // too many small
		{NBig: 1, BigFreq: 700},             // unknown operating point
		{NBig: -1, NSmall: 2},               // negative
		{NBig: 1, NSmall: -2, BigFreq: 600}, // negative small
	}
	for _, c := range bad {
		if err := c.Validate(spec); err == nil {
			t.Errorf("config %v should be invalid", c)
		}
	}
	good := Config{NBig: 1, NSmall: 2, BigFreq: 900}
	if err := good.Validate(spec); err != nil {
		t.Errorf("config %v should be valid: %v", good, err)
	}
}

func TestConfigNormalize(t *testing.T) {
	spec := juno(t)
	a := Config{NSmall: 2, BigFreq: 1150}.Normalize(spec)
	b := Config{NSmall: 2, BigFreq: 600}.Normalize(spec)
	if a != b {
		t.Fatalf("small-only configs with different big freq should normalise equal: %v vs %v", a, b)
	}
	c := Config{NBig: 1, NSmall: 1, BigFreq: 900}.Normalize(spec)
	if c.BigFreq != 900 {
		t.Fatal("normalise must not touch configs that use big cores")
	}
}

func TestMigrationDistance(t *testing.T) {
	a := Config{NBig: 2, BigFreq: 1150}
	b := Config{NSmall: 4}
	if got := MigrationDistance(a, b); got != 6 {
		t.Fatalf("cluster switch distance = %d, want 6", got)
	}
	if got := MigrationDistance(a, a); got != 0 {
		t.Fatalf("identical configs distance = %d", got)
	}
	c := Config{NBig: 2, BigFreq: 600}
	if got := MigrationDistance(a, c); got != 0 {
		t.Fatalf("DVFS-only change distance = %d, want 0", got)
	}
	f := func(b1, s1, b2, s2 uint8) bool {
		x := Config{NBig: int(b1 % 3), NSmall: int(s1 % 5)}
		y := Config{NBig: int(b2 % 3), NSmall: int(s2 % 5)}
		return MigrationDistance(x, y) == MigrationDistance(y, x) &&
			MigrationDistance(x, y) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowerMonotoneInUtilisation(t *testing.T) {
	spec := juno(t)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		u1 := rng.Float64()
		u2 := u1 + rng.Float64()*(1-u1)
		mk := func(u float64) Load {
			return Load{
				BigFreq:    900,
				SmallFreq:  650,
				BigUtils:   []float64{u, u},
				SmallUtils: []float64{u, u, u, u},
			}
		}
		p1 := SystemPower(spec, mk(u1)).Total()
		p2 := SystemPower(spec, mk(u2)).Total()
		if p2 < p1-1e-12 {
			t.Fatalf("power not monotone in utilisation: %v@%v > %v@%v", p1, u1, p2, u2)
		}
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	spec := juno(t)
	prev := 0.0
	for _, f := range spec.Big.Freqs {
		p := SystemPower(spec, Load{
			BigFreq:  f,
			BigUtils: []float64{1, 1},
		}).Total()
		if p <= prev {
			t.Fatalf("power at %d MHz (%v) not above previous point (%v)", f, p, prev)
		}
		prev = p
	}
}

func TestClusterGating(t *testing.T) {
	spec := juno(t)
	idle := SystemPower(spec, Load{BigFreq: 1150, SmallFreq: 650})
	if idle.BigW != spec.Big.GatedW {
		t.Fatalf("idle big cluster should gate to %v W, got %v", spec.Big.GatedW, idle.BigW)
	}
	if idle.SmallW != spec.Small.GatedW {
		t.Fatalf("idle small cluster should gate to %v W, got %v", spec.Small.GatedW, idle.SmallW)
	}
}

func TestCPUIdleDisabledCostsPower(t *testing.T) {
	spec := juno(t)
	on := SystemPower(spec, Load{BigFreq: 1150, BigUtils: []float64{0.5}})
	off := SystemPower(spec, Load{BigFreq: 1150, BigUtils: []float64{0.5}, CPUIdleDisabled: true})
	if off.Total() <= on.Total() {
		t.Fatalf("disabling CPUidle must not reduce power: %v vs %v", off.Total(), on.Total())
	}
	// With CPUidle disabled the small cluster can no longer gate.
	if off.SmallW <= spec.Small.GatedW {
		t.Fatalf("small cluster should burn static power with CPUidle off, got %v", off.SmallW)
	}
}

func TestOrderByStressPowerAscending(t *testing.T) {
	spec := juno(t)
	ordered := OrderByStressPower(spec, Configs(spec))
	if len(ordered) != 13 {
		t.Fatalf("ordering lost configs: %d", len(ordered))
	}
	prev := -1.0
	for _, c := range ordered {
		p := StressPower(spec, c).Total
		if p < prev-1e-12 {
			t.Fatalf("ladder not power-ascending at %v (%v < %v)", c, p, prev)
		}
		prev = p
	}
	if ordered[0].String() != "1S-0.65" {
		t.Errorf("cheapest state should be 1S-0.65, got %v", ordered[0])
	}
	last := ordered[len(ordered)-1]
	if last.NBig != 2 || last.BigFreq != 1150 {
		t.Errorf("most expensive state should use both bigs at max DVFS, got %v", last)
	}
}

// orderByStressPowerRef is the comparator-side sort: both keys are
// evaluated inside every comparison. It is the reference the keyed sort
// of OrderByStressPower is pinned to.
func orderByStressPowerRef(spec *Spec, configs []Config) []Config {
	out := slices.Clone(configs)
	power := func(c Config) float64 { return StressPower(spec, c).Total }
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := power(out[i]), power(out[j])
		if pi != pj {
			return pi < pj
		}
		ci, cj := StressIPS(spec, out[i]), StressIPS(spec, out[j])
		if ci != cj {
			return ci < cj
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// TestOrderByStressPowerMatchesComparatorSort pins the keyed sort to
// the comparator-side reference on the Juno R1 space in the given
// order, reversed, and in 100 seeded shuffles.
func TestOrderByStressPowerMatchesComparatorSort(t *testing.T) {
	spec := juno(t)
	given := Configs(spec)
	inputs := [][]Config{given, slices.Clone(given)}
	slices.Reverse(inputs[1])
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		in := slices.Clone(given)
		r.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		inputs = append(inputs, in)
	}
	for k, in := range inputs {
		before := slices.Clone(in)
		got, want := OrderByStressPower(spec, in), orderByStressPowerRef(spec, in)
		if !slices.Equal(got, want) {
			t.Fatalf("input %d %v: keyed order %v != comparator order %v", k, in, got, want)
		}
		if !slices.Equal(in, before) {
			t.Fatalf("input %d: OrderByStressPower reordered its argument", k)
		}
	}
}

// TestStressLadderIsMemoized pins the spec's ladder to the comparator
// order of its configuration space, and checks that a second spec of a
// different shape gets its own ladder while the first keeps one.
func TestStressLadderIsMemoized(t *testing.T) {
	spec, small := juno(t), juno(t)
	small.Big.Cores = 1
	for _, s := range []*Spec{spec, small} {
		got := s.StressLadder()
		if want := orderByStressPowerRef(s, Configs(s)); !slices.Equal(got, want) {
			t.Fatalf("%d big cores: ladder %v, want %v", s.Big.Cores, got, want)
		}
		if again := s.StressLadder(); &again[0] != &got[0] {
			t.Fatalf("%d big cores: the ladder was computed twice", s.Big.Cores)
		}
	}
	if slices.Equal(small.StressLadder(), spec.StressLadder()) {
		t.Fatal("specs of different shapes share a ladder")
	}
}

func TestTotalIPSScaling(t *testing.T) {
	spec := juno(t)
	if got := spec.Big.TotalIPS(2, 1150); math.Abs(got-4260e6) > 1e3 {
		t.Fatalf("2 big cores at max = %v, want 4260e6", got)
	}
	if got := spec.Small.TotalIPS(4, 650); math.Abs(got-3298e6) > 1e3 {
		t.Fatalf("4 small cores = %v, want 3298e6", got)
	}
	if got := spec.Big.TotalIPS(0, 1150); got != 0 {
		t.Fatalf("0 cores = %v", got)
	}
	// Frequency scaling is linear for the compute-only benchmark.
	half := spec.Big.CoreIPS(600)
	want := 2138e6 * 600.0 / 1150.0
	if math.Abs(half-want) > 1 {
		t.Fatalf("CoreIPS(600) = %v, want %v", half, want)
	}
	// Clamps beyond the cluster size.
	if spec.Big.TotalIPS(5, 1150) != spec.Big.TotalIPS(2, 1150) {
		t.Fatal("TotalIPS should clamp at cluster size")
	}
}

func TestEnergyMeter(t *testing.T) {
	var m EnergyMeter
	m.Add(Breakdown{BigW: 2, SmallW: 1, RestW: 0.5}, 10)
	m.Add(Breakdown{BigW: 1, SmallW: 1, RestW: 0.5}, 10)
	if got := m.TotalJ(); math.Abs(got-60) > 1e-12 {
		t.Fatalf("total energy = %v, want 60", got)
	}
	if got := m.MeanPowerW(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean power = %v, want 3", got)
	}
	if m.Seconds() != 20 {
		t.Fatalf("seconds = %v", m.Seconds())
	}
	m.Reset()
	if m.TotalJ() != 0 || m.MeanPowerW() != 0 {
		t.Fatal("reset should zero the meter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative dt should panic")
		}
	}()
	m.Add(Breakdown{}, -1)
}

func TestSpecValidateRejectsBadSpecs(t *testing.T) {
	s := JunoR1()
	s.Big.Cores = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero-core cluster should fail validation")
	}
	s = JunoR1()
	s.TDPW = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero TDP should fail validation")
	}
	s = JunoR1()
	delete(s.Big.Volt, 900)
	if err := s.Validate(); err == nil {
		t.Fatal("missing voltage point should fail validation")
	}
	s = JunoR1()
	s.Big.AllCoresIPS = 3 * s.Big.PeakCoreIPS
	if err := s.Validate(); err == nil {
		t.Fatal("superlinear multicore scaling should fail validation")
	}
}

func TestRestPowerScalesWithActivity(t *testing.T) {
	spec := juno(t)
	idle := SystemPower(spec, Load{BigFreq: 1150, BigUtils: []float64{1, 1}, DeliveredIPS: 0})
	busy := SystemPower(spec, Load{BigFreq: 1150, BigUtils: []float64{1, 1}, DeliveredIPS: spec.MaxSystemIPS()})
	if busy.RestW <= idle.RestW {
		t.Fatalf("rest power should scale with delivered IPS: %v vs %v", busy.RestW, idle.RestW)
	}
	if math.Abs(idle.RestW-spec.RestBaseW) > 1e-12 {
		t.Fatalf("zero-activity rest = %v, want base %v", idle.RestW, spec.RestBaseW)
	}
}
