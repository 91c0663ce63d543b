package rl

import (
	"math"
	"testing"
	"testing/quick"

	"hipster/internal/platform"
)

func actions() []platform.Config {
	return []platform.Config{
		{NSmall: 1},
		{NSmall: 4},
		{NBig: 2, BigFreq: 1150},
	}
}

func TestQuantizerBuckets(t *testing.T) {
	q, err := NewQuantizer(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.NumBuckets(); got != 21 {
		t.Fatalf("5%% buckets = %d, want 21 (20 + overload)", got)
	}
	cases := []struct {
		load float64
		want int
	}{
		{0, 0}, {0.04, 0}, {0.05, 1}, {0.51, 10}, {0.999, 19}, {1.0, 20}, {1.4, 20}, {-0.1, 0},
	}
	for _, c := range cases {
		if got := q.Bucket(c.load); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.load, got, c.want)
		}
	}
}

func TestQuantizerProperties(t *testing.T) {
	q, _ := NewQuantizer(0.03)
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 1.2)
		y := math.Mod(math.Abs(b), 1.2)
		if x > y {
			x, y = y, x
		}
		bx, by := q.Bucket(x), q.Bucket(y)
		return bx <= by && bx >= 0 && by < q.NumBuckets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Each interior bucket's midpoint maps into that bucket.
	for b := 0; b < q.NumBuckets()-1; b++ {
		if got := q.Bucket((float64(b) + 0.5) * q.BucketFrac); got != b {
			t.Fatalf("midpoint of bucket %d maps to %d", b, got)
		}
	}
}

func TestNewQuantizerValidation(t *testing.T) {
	for _, frac := range []float64{0, -0.1, 1.5} {
		if _, err := NewQuantizer(frac); err == nil {
			t.Errorf("bucket fraction %v accepted", frac)
		}
	}
}

func TestRewardRegimes(t *testing.T) {
	qosD := 0.85
	base := RewardInput{Target: 1, PowerW: 2, TDPW: 4}

	// Below the danger zone: positive, increasing toward the target.
	low := base
	low.TailLatency = 0.3
	high := base
	high.TailLatency = 0.8
	rl, rh := Reward(low, qosD), Reward(high, qosD)
	if rl <= 0 || rh <= 0 {
		t.Fatal("meeting QoS should be rewarded")
	}
	if rh <= rl {
		t.Fatal("earliness: approaching the target should pay more")
	}

	// Danger zone: stochastic penalty subtracts the random draw.
	danger := base
	danger.TailLatency = 0.9
	danger.Rand = 0.4
	noPenalty := danger
	noPenalty.Rand = 0
	if got, want := Reward(noPenalty, qosD)-Reward(danger, qosD), 0.4; math.Abs(got-want) > 1e-12 {
		t.Fatalf("stochastic penalty = %v, want %v", got, want)
	}

	// Violation: strictly below any QoS-meeting reward and decreasing
	// in tardiness.
	viol := base
	viol.TailLatency = 1.5
	worse := base
	worse.TailLatency = 3.0
	rv, rw := Reward(viol, qosD), Reward(worse, qosD)
	if rv >= rh {
		t.Fatal("violating must pay less than meeting")
	}
	if rw >= rv {
		t.Fatal("deeper violations must pay less")
	}
}

func TestRewardPowerTerm(t *testing.T) {
	qosD := 0.85
	cheap := RewardInput{TailLatency: 0.5, Target: 1, PowerW: 1, TDPW: 4}
	costly := RewardInput{TailLatency: 0.5, Target: 1, PowerW: 4, TDPW: 4}
	if Reward(cheap, qosD) <= Reward(costly, qosD) {
		t.Fatal("HipsterIn must prefer lower power")
	}
	// TDP/Power with equal values contributes exactly 1.
	if got := Reward(costly, qosD) - (0.5 + 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("power term = %v, want 1", got)
	}
}

func TestRewardThroughputTerm(t *testing.T) {
	qosD := 0.85
	in := RewardInput{
		TailLatency: 0.5, Target: 1,
		PowerW: 2, TDPW: 4, // must be ignored in batch mode
		HasBatch:  true,
		BigIPS:    2e9,
		SmallIPS:  1e9,
		MaxBigIPS: 4e9, MaxSmallIPS: 2e9,
	}
	want := 0.5 + 1 + 3.0/6.0
	if got := Reward(in, qosD); math.Abs(got-want) > 1e-12 {
		t.Fatalf("throughput reward = %v, want %v", got, want)
	}
	// More batch throughput pays more.
	more := in
	more.BigIPS = 4e9
	if Reward(more, qosD) <= Reward(in, qosD) {
		t.Fatal("HipsterCo must prefer higher batch IPS")
	}
}

func TestTableUpdateConverges(t *testing.T) {
	tab, err := NewTable(3, actions())
	if err != nil {
		t.Fatal(err)
	}
	// Repeated identical rewards with a self-transition converge to
	// lambda / (1 - gamma).
	const lambda, alpha, gamma = 2.0, 0.6, 0.9
	for i := 0; i < 500; i++ {
		tab.Update(1, 0, 1, lambda, alpha, gamma)
	}
	want := lambda / (1 - gamma)
	if got := tab.Value(1, 0); math.Abs(got-want) > 0.01*want {
		t.Fatalf("Q value %v, want ~%v", got, want)
	}
	if tab.Visits(1, 0) != 500 {
		t.Fatalf("visits = %d", tab.Visits(1, 0))
	}
	if tab.StateVisits(1) != 500 || tab.StateVisits(0) != 0 {
		t.Fatal("state visit accounting")
	}
}

func TestTableBestAndTieBreak(t *testing.T) {
	tab, _ := NewTable(2, actions())
	// All-zero state: ties break toward the lowest index (cheapest
	// configuration in ladder order).
	if got := tab.Best(0); got != 0 {
		t.Fatalf("zero-state argmax = %d, want 0", got)
	}
	tab.Update(0, 2, 0, 5, 1, 0)
	if got := tab.Best(0); got != 2 {
		t.Fatalf("argmax = %d, want 2", got)
	}
	if got := tab.MaxValue(0); math.Abs(got-5) > 1e-12 {
		t.Fatalf("max value = %v", got)
	}
}

func TestTableBootstrapsFromNextState(t *testing.T) {
	tab, _ := NewTable(2, actions())
	tab.Update(1, 0, 1, 10, 1, 0) // seed state 1 with value 10
	tab.Update(0, 1, 1, 0, 1, 0.5)
	// Q(0,1) = 0 + 0.5 * maxQ(1) = 5.
	if got := tab.Value(0, 1); math.Abs(got-5) > 1e-12 {
		t.Fatalf("bootstrapped value = %v, want 5", got)
	}
}

func TestTableActionLookup(t *testing.T) {
	tab, _ := NewTable(2, actions())
	for i, a := range actions() {
		if got := tab.ActionIndex(a); got != i {
			t.Fatalf("ActionIndex(%v) = %d", a, got)
		}
		if tab.Action(i) != a {
			t.Fatalf("Action(%d) mismatch", i)
		}
	}
	if tab.ActionIndex(platform.Config{NBig: 1, BigFreq: 600}) != -1 {
		t.Fatal("unknown action should be -1")
	}
	// The actions slice must be a copy.
	tab.Actions()[0] = platform.Config{NBig: 9}
	if tab.Action(0).NBig == 9 {
		t.Fatal("Actions() aliases internal state")
	}
}

func TestTableSnapshotIsCopy(t *testing.T) {
	tab, _ := NewTable(2, actions())
	tab.Update(0, 0, 0, 3, 1, 0)
	snap := tab.Snapshot()
	snap[0][0] = 99
	if tab.Value(0, 0) == 99 {
		t.Fatal("snapshot aliases table")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(0, actions()); err == nil {
		t.Fatal("zero states accepted")
	}
	if _, err := NewTable(3, nil); err == nil {
		t.Fatal("empty actions accepted")
	}
}
