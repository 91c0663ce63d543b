package batch

import (
	"errors"
	"math"
	"testing"

	"hipster/internal/names"
	"hipster/internal/platform"
)

func TestSPEC2006Catalog(t *testing.T) {
	progs := SPEC2006()
	if len(progs) != 12 {
		t.Fatalf("expected the 12 programs of Figure 11, got %d", len(progs))
	}
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
		r := p.SpeedupBigOverSmall()
		if r < 1.5 || r > 6.5 {
			t.Errorf("%s big/small speedup %v implausible", p.Name, r)
		}
	}
	// Compute-bound programs gain the most from big cores; memory-bound
	// the least (the calculix vs libquantum spread of Figure 11).
	calc, _ := ProgramByName("calculix")
	libq, _ := ProgramByName("libquantum")
	if calc.SpeedupBigOverSmall() <= libq.SpeedupBigOverSmall() {
		t.Error("calculix must benefit more from big cores than libquantum")
	}
	if calc.MemIntensity >= libq.MemIntensity {
		t.Error("libquantum must be more memory-bound than calculix")
	}
	if _, err := ProgramByName("doom"); !errors.Is(err, names.ErrUnknown) {
		t.Errorf("unknown program error = %v, want names.ErrUnknown", err)
	}
}

func TestIPSOnFrequencyScaling(t *testing.T) {
	spec := platform.JunoR1()
	povray, _ := ProgramByName("povray")
	lbm, _ := ProgramByName("lbm")

	// At maximum frequency IPSOn returns the calibrated value.
	if got := povray.IPSOn(spec, platform.Big, 1150); math.Abs(got-povray.BigIPS) > 1 {
		t.Fatalf("povray big IPS at max = %v", got)
	}
	if got := lbm.IPSOn(spec, platform.Small, 650); math.Abs(got-lbm.SmallIPS) > 1 {
		t.Fatalf("lbm small IPS = %v", got)
	}

	// IPS is monotone in frequency.
	prev := 0.0
	for _, f := range spec.Big.Freqs {
		got := povray.IPSOn(spec, platform.Big, f)
		if got <= prev {
			t.Fatalf("povray IPS not monotone at %d MHz", f)
		}
		prev = got
	}

	// Memory-bound programs lose less from down-clocking: compare the
	// relative IPS drop at 600 MHz.
	povDrop := povray.IPSOn(spec, platform.Big, 600) / povray.BigIPS
	lbmDrop := lbm.IPSOn(spec, platform.Big, 600) / lbm.BigIPS
	if lbmDrop <= povDrop {
		t.Fatalf("lbm (memory-bound) should retain more IPS at low DVFS: %v vs %v", lbmDrop, povDrop)
	}
	if got := povray.IPSOn(spec, platform.Big, 0); got != 0 {
		t.Fatalf("zero frequency should yield zero IPS, got %v", got)
	}
}

func TestRunnerStep(t *testing.T) {
	spec := platform.JunoR1()
	calc, _ := ProgramByName("calculix")
	r, err := NewRunner([]Program{calc})
	if err != nil {
		t.Fatal(err)
	}
	g := Grant{NBig: 2, NSmall: 2, BigFreq: 1150, SmallFreq: 650}
	res := r.Step(spec, g, 1, 1, 1)
	wantBig := 2 * calc.BigIPS
	wantSmall := 2 * calc.SmallIPS
	if math.Abs(res.BigIPS-wantBig) > 1 {
		t.Fatalf("big IPS = %v, want %v", res.BigIPS, wantBig)
	}
	if math.Abs(res.SmallIPS-wantSmall) > 1 {
		t.Fatalf("small IPS = %v, want %v", res.SmallIPS, wantSmall)
	}
}

func TestRunnerSuspendResume(t *testing.T) {
	spec := platform.JunoR1()
	r, _ := NewRunner(SPEC2006())
	g := Grant{NBig: 1, NSmall: 1, BigFreq: 1150, SmallFreq: 650}
	r.Suspend()
	if !r.Suspended() {
		t.Fatal("suspend flag")
	}
	if res := r.Step(spec, g, 1, 1, 1); res.TotalIPS() != 0 {
		t.Fatal("suspended runner should make no progress (SIGSTOP)")
	}
	r.Resume()
	if res := r.Step(spec, g, 1, 1, 1); res.TotalIPS() <= 0 {
		t.Fatal("resumed runner should progress (SIGCONT)")
	}
}

func TestRunnerZeroGrant(t *testing.T) {
	spec := platform.JunoR1()
	r, _ := NewRunner(SPEC2006())
	if res := r.Step(spec, Grant{}, 1, 1, 1); res.TotalIPS() != 0 {
		t.Fatal("no cores granted should yield no progress")
	}
}

func TestRunnerSlowdownApplies(t *testing.T) {
	spec := platform.JunoR1()
	calc, _ := ProgramByName("calculix")
	r, _ := NewRunner([]Program{calc})
	g := Grant{NBig: 2, BigFreq: 1150, SmallFreq: 650}
	full := r.Step(spec, g, 1, 1, 1)
	slowed := r.Step(spec, g, 1, 0.5, 1)
	if math.Abs(slowed.BigIPS-full.BigIPS*0.5) > 1 {
		t.Fatalf("slowdown not applied: %v vs %v", slowed.BigIPS, full.BigIPS*0.5)
	}
	// Out-of-range slowdowns are treated as no contention.
	clean := r.Step(spec, g, 1, 1.7, -2)
	if math.Abs(clean.BigIPS-full.BigIPS) > 1 {
		t.Fatal("invalid slowdown factors should be ignored")
	}
}

func TestRunnerRoundRobinMix(t *testing.T) {
	spec := platform.JunoR1()
	calc, _ := ProgramByName("calculix")
	lbm, _ := ProgramByName("lbm")
	r, _ := NewRunner([]Program{calc, lbm})
	g := Grant{NBig: 1, BigFreq: 1150, SmallFreq: 650}
	first := r.Step(spec, g, 1, 1, 1)
	second := r.Step(spec, g, 1, 1, 1)
	if math.Abs(first.BigIPS-calc.BigIPS) > 1 {
		t.Fatalf("first step should run calculix, got %v", first.BigIPS)
	}
	if math.Abs(second.BigIPS-lbm.BigIPS) > 1 {
		t.Fatalf("second step should rotate to lbm, got %v", second.BigIPS)
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(nil); err == nil {
		t.Fatal("empty mix should fail")
	}
	if _, err := NewRunner([]Program{{Name: "x", BigIPS: -1, SmallIPS: 1}}); err == nil {
		t.Fatal("invalid program should fail")
	}
}

func TestMaxIPSOnAndMemIntensity(t *testing.T) {
	spec := platform.JunoR1()
	calc, _ := ProgramByName("calculix")
	r, _ := NewRunner([]Program{calc})
	if got := r.MaxIPSOn(spec, platform.Big, 2); math.Abs(got-2*calc.BigIPS) > 1 {
		t.Fatalf("MaxIPSOn big = %v", got)
	}
	if got := r.MaxIPSOn(spec, platform.Small, 4); math.Abs(got-4*calc.SmallIPS) > 1 {
		t.Fatalf("MaxIPSOn small = %v", got)
	}
	if got := r.MeanMemIntensity(); got != calc.MemIntensity {
		t.Fatalf("mem intensity = %v", got)
	}
}
