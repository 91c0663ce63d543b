package heuristic

import (
	"sync"
	"testing"

	"hipster/internal/platform"
	"hipster/internal/policy"
)

func TestLadderCoversFullConfigSpace(t *testing.T) {
	spec := platform.JunoR1()
	states := Ladder(spec)
	if len(states) != 13 {
		t.Fatalf("heuristic ladder should cover all 13 configurations, got %d", len(states))
	}
	// Ascending stress power (§3.3 ordering).
	prev := -1.0
	for _, s := range states {
		p := platform.StressPower(spec, s).Total
		if p < prev {
			t.Fatalf("ladder not power-ascending at %v", s)
		}
		prev = p
	}
	// Unlike Octopus-Man, the heuristic explores mixed configurations.
	mixed := 0
	for _, s := range states {
		if s.NBig > 0 && s.NSmall > 0 {
			mixed++
		}
	}
	if mixed < 4 {
		t.Fatalf("expected several mixed configurations, got %d", mixed)
	}
}

func TestPaperLadderExactOrder(t *testing.T) {
	spec := platform.JunoR1()
	got := PaperLadder(spec)
	want := []string{
		"1S-0.65", "2S-0.65", "3S-0.65",
		"2B-0.60", "1B3S-0.60", "4S-0.65", "2B2S-0.60",
		"1B3S-0.90", "2B-0.90", "2B2S-0.90",
		"1B3S-1.15", "2B2S-1.15", "2B-1.15",
	}
	if len(got) != len(want) {
		t.Fatalf("paper ladder has %d states", len(got))
	}
	for i, name := range want {
		if got[i].String() != name {
			t.Errorf("position %d: got %v, want %s", i, got[i], name)
		}
	}
}

func TestPaperLadderFallsBackOnForeignPlatform(t *testing.T) {
	spec := platform.JunoR1()
	spec.Big.Cores = 1 // not the paper's configuration space any more
	got := PaperLadder(spec)
	if len(got) == 0 {
		t.Fatal("fallback ladder should not be empty")
	}
	// Must equal the modelled ordering.
	want := Ladder(spec)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fallback should be the modelled ordering, differs at %d", i)
		}
	}
}

func TestMapperDecisions(t *testing.T) {
	spec := platform.JunoR1()
	m := MustNew(spec, Params{QoSD: 0.8, QoSS: 0.5, StartAtTop: true})
	if m.Name() != "hipster-heuristic" {
		t.Fatal("name")
	}
	top := m.Decide(policy.Observation{TailLatency: 0.7, Target: 1})
	if top != m.States()[len(m.States())-1] {
		t.Fatalf("neutral from top = %v", top)
	}
	for i := 0; i < 30; i++ {
		m.Decide(policy.Observation{TailLatency: 0.1, Target: 1})
	}
	if m.Index() != 0 {
		t.Fatalf("sustained safe should reach the bottom, index=%d", m.Index())
	}
	m.SetIndex(5)
	if m.Index() != 5 {
		t.Fatal("SetIndex")
	}
	if got := m.IndexOf(m.States()[5]); got != 5 {
		t.Fatalf("IndexOf = %d", got)
	}
	m.Reset()
	if m.Index() != len(m.States())-1 {
		t.Fatal("reset should restore start")
	}
}

func TestNewWithLadderValidation(t *testing.T) {
	if _, err := NewWithLadder(nil, DefaultParams()); err == nil {
		t.Fatal("empty ladder accepted")
	}
}

// modelledJuno is the §3.3 ladder OrderByStressPower gives Juno R1, the
// order heuristic.New uses. Figure 2c's empirical order (PaperLadder)
// differs from it in where 4S, 2B2S-0.90 and the 1.15-GHz states sit.
var modelledJuno = []string{
	"1S-0.65", "2S-0.65", "3S-0.65", "4S-0.65",
	"2B-0.60", "1B3S-0.60", "2B2S-0.60", "1B3S-0.90", "2B-0.90",
	"1B3S-1.15", "2B2S-0.90", "2B-1.15", "2B2S-1.15",
}

func sameOrder(t *testing.T, what string, got []platform.Config) {
	t.Helper()
	if len(got) != len(modelledJuno) {
		t.Fatalf("%s has %d states, want %d", what, len(got), len(modelledJuno))
	}
	for i, name := range modelledJuno {
		if got[i].String() != name {
			t.Fatalf("%s position %d: got %v, want %s", what, i, got[i], name)
		}
	}
}

// TestLadderIsTheCallers pins that the slice Ladder returns is a copy:
// overwriting it moves no mapper built before or after, and no later
// Ladder, on the same spec.
func TestLadderIsTheCallers(t *testing.T) {
	spec := platform.JunoR1()
	before := MustNew(spec, DefaultParams())
	l := Ladder(spec)
	for i := range l {
		l[i] = platform.Config{NBig: 9}
	}
	sameOrder(t, "mapper built before the write", before.States())
	sameOrder(t, "mapper built after the write", MustNew(spec, DefaultParams()).States())
	sameOrder(t, "a later Ladder", Ladder(spec))
}

// TestConcurrentMappersShareOneLadder has 8 goroutines build mappers
// on one fresh spec, whose ladder none has computed yet: every mapper
// must get the modelled order, and the spec must end up holding one
// ladder. Run under -race.
func TestConcurrentMappersShareOneLadder(t *testing.T) {
	spec := platform.JunoR1()
	const workers = 8
	got := make([][]platform.Config, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, err := New(spec, DefaultParams())
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = m.States()
		}(w)
	}
	wg.Wait()
	for w, states := range got {
		sameOrder(t, "mapper", states)
		if w > 0 && &states[0] == &got[0][0] {
			t.Fatal("two mappers share one state slice")
		}
	}
	if a, b := spec.StressLadder(), spec.StressLadder(); &a[0] != &b[0] {
		t.Fatal("the spec recomputed its ladder")
	}
}
