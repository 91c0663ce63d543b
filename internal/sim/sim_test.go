package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSubSeedStable(t *testing.T) {
	s1 := SubSeed(42, "workload")
	s2 := SubSeed(42, "workload")
	if s1 != s2 {
		t.Fatalf("SubSeed not stable: %d vs %d", s1, s2)
	}
	if SubSeed(42, "workload") == SubSeed(42, "power") {
		t.Fatal("different labels should give different seeds")
	}
	if SubSeed(42, "workload") == SubSeed(43, "workload") {
		t.Fatal("different seeds should give different sub-seeds")
	}
}

func TestSubRNGIndependentStreams(t *testing.T) {
	a := SubRNG(1, "a")
	b := SubRNG(1, "b")
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("streams look correlated: %d identical draws", same)
	}
}

func TestLogNormalZeroSigma(t *testing.T) {
	r := NewRNG(3)
	got := LogNormal(r, 1.5, 0)
	want := math.Exp(1.5)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("sigma=0: got %v want %v", got, want)
	}
}

func TestLogNormalMedianNearOne(t *testing.T) {
	r := NewRNG(11)
	n := 20000
	above := 0
	for i := 0; i < n; i++ {
		if LogNormal(r, 0, 0.5) > 1 {
			above++
		}
	}
	frac := float64(above) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("median should be ~1: P(X>1) = %v", frac)
	}
}

func TestJitterProperties(t *testing.T) {
	r := NewRNG(5)
	f := func(x float64) bool {
		x = math.Mod(math.Abs(x), 1e9) + 0.001
		j := Jitter(r, x, 0.1)
		return j > 0 && !math.IsNaN(j) && !math.IsInf(j, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterNoopCases(t *testing.T) {
	if got := Jitter(nil, 3.5, 0.1); got != 3.5 {
		t.Fatalf("nil rng should passthrough, got %v", got)
	}
	r := NewRNG(1)
	if got := Jitter(r, 3.5, 0); got != 3.5 {
		t.Fatalf("zero sigma should passthrough, got %v", got)
	}
}

func TestClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 || c.Steps() != 0 {
		t.Fatal("fresh clock should be at zero")
	}
	for i := 1; i <= 10; i++ {
		if got, want := c.Tick(), float64(i)*IntervalSecs; got != want || c.Now() != want || c.Steps() != i {
			t.Fatalf("tick %d: got %v (now %v, steps %d), want %v", i, got, c.Now(), c.Steps(), want)
		}
	}
	c.Reset()
	if c.Now() != 0 || c.Steps() != 0 {
		t.Fatal("reset should rewind")
	}
}

func TestClockNoDrift(t *testing.T) {
	// Time is steps times the interval, never a running sum, so it
	// stays exact however long the run, and again after a reset.
	c := NewClock()
	for round := 0; round < 2; round++ {
		for i := 1; i <= 1000; i++ {
			if got, want := c.Tick(), float64(i)*IntervalSecs; got != want || c.Steps() != i {
				t.Fatalf("round %d tick %d: got %v (steps %d), want %v", round, i, got, c.Steps(), want)
			}
		}
		if got, want := c.Now(), 1000*IntervalSecs; got != want {
			t.Fatalf("round %d: drift after 1000 ticks: %v", round, got-want)
		}
		c.Reset()
	}
}
