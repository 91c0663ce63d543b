package clusterdes

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hipster/internal/faults"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/queueing"
	"hipster/internal/resilience"
	"hipster/internal/workload"
)

// evArrival and srcArrival tag an arrival in a pop record; an arrival
// sorts after every queued source at its time.
const (
	evArrival  = -1
	srcArrival = srcHedge + 1
)

// popped is one event as it left a queue. src is the source next named
// for it; the reference records srcHeap or srcArrival.
type popped struct {
	t    float64
	kind int8
	id   int32
	src  int
}

// laneScript supplies a script's choices — a timer lane script here, a
// hedge-placement scene in hotpath_test.go — from a seeded stream or
// from fuzz bytes. A seeded lane script's continuous due times never
// tie; coarse fuzz-byte ones often do.
type laneScript struct {
	rng  *rand.Rand
	data []byte
}

// byte returns the next choice; ok is false once fuzz bytes run out.
func (s *laneScript) byte() (b byte, ok bool) {
	if s.rng != nil {
		return byte(s.rng.Intn(256)), true
	}
	if len(s.data) == 0 {
		return 0, false
	}
	b, s.data = s.data[0], s.data[1:]
	return b, true
}

// frac returns a value in (0, 1].
func (s *laneScript) frac() float64 {
	if s.rng != nil {
		return 1 - s.rng.Float64()
	}
	b, _ := s.byte()
	return (1 + float64(b)) / 256
}

// laneHarness plays one script against an eventQueue and against the
// path it replaced — one queueing.TimeHeap holding every event, merged
// with the pending arrival on <= — and records what each pops. Both
// sides share the arrival process, so they pop in lockstep.
type laneHarness struct {
	tb        testing.TB
	q         eventQueue
	ref       queueing.TimeHeap[event]
	now, tArr float64
	id        int32
	got, want []popped
}

// push puts a completion or retry on both heaps.
func (h *laneHarness) push(t float64, kind int8) {
	h.id++
	h.q.heap.Push(t, event{kind: kind, a: h.id})
	h.ref.Push(t, event{kind: kind, a: h.id})
}

// arm arms one deadline or hedge timer on both sides.
func (h *laneHarness) arm(t float64, kind int8) {
	h.id++
	h.q.arm(t, kind, h.id)
	h.ref.Push(t, event{kind: kind, a: h.id})
}

// nextEvent names the loop's next event as runInterval does: the
// earliest queued one, unless the arrival at tArr is strictly earlier.
func nextEvent(q *eventQueue, tArr float64) (int, float64) {
	src, t := q.next()
	if tArr < t {
		return srcArrival, tArr
	}
	return src, t
}

// popEvent removes the queued event next named, as runInterval does.
func popEvent(q *eventQueue, src int) (float64, event) {
	if src == srcHeap {
		return q.heap.Pop()
	}
	return q.popTimer()
}

// pop takes one event off each side, failing when they disagree on its
// time or on whether it is the arrival. It returns the source and
// reports false when nothing is pending.
func (h *laneHarness) pop() (int, bool) {
	src, t := nextEvent(&h.q, h.tArr)
	rsrc, rt := srcHeap, math.Inf(1)
	if et, ok := h.ref.PeekTime(); ok {
		rt = et
	}
	if !(rt <= h.tArr) {
		rsrc, rt = srcArrival, h.tArr
	}
	if t != rt || (src == srcArrival) != (rsrc == srcArrival) {
		h.tb.Fatalf("pop %d: lanes give source %d at %v, the single heap source %d at %v",
			len(h.got), src, t, rsrc, rt)
	}
	if math.IsInf(t, 1) {
		return src, false
	}
	if t < h.now {
		h.tb.Fatalf("pop %d: time %v runs back past %v", len(h.got), t, h.now)
	}
	h.now = t
	if src == srcArrival {
		h.got = append(h.got, popped{t, evArrival, -1, srcArrival})
		h.want = append(h.want, popped{t, evArrival, -1, srcArrival})
		return src, true
	}
	gt, gev := popEvent(&h.q, src)
	wt, wev := h.ref.Pop()
	h.got = append(h.got, popped{gt, gev.kind, gev.a, src})
	h.want = append(h.want, popped{wt, wev.kind, wev.a, srcHeap})
	return src, true
}

// runLaneScript plays a script: a constant deadline, a hedge wait that
// shrinks or grows at every boundary, completions and retries pushed on
// the heap, and pops interleaved with all of them. Each arrival arms
// its timers as handleArrival does: a deadline, and a hedge at the wait
// or, on a suspect node, at a quarter of it. Arms happen at the clock
// of the last pop, which never decreases, and the script alone decides
// them — arrivals and boundaries fall at the same pops on both sides —
// so both sides see the same pushes even where equal times pop in
// different orders. After steps operations, or when fuzz bytes run
// out, both sides drain.
func runLaneScript(tb testing.TB, s *laneScript, steps int) *laneHarness {
	h := &laneHarness{tb: tb, q: newEventQueue()}
	// Every constant is dyadic, so byte-valued fractions add up exactly
	// and due times from fuzz bytes tie often.
	deadline := 0.25 + 2*s.frac()
	wait := 1.0/128 + s.frac()
	const gap, tick = 1.0 / 64, 0.5
	h.tArr = gap * s.frac()
	boundary := tick
	for i := 0; i < steps; i++ {
		b, ok := s.byte()
		if !ok {
			break
		}
		switch b % 8 {
		case 5, 6:
			h.push(h.now+s.frac()/8, evCompletion)
			continue
		case 7:
			h.push(h.now+s.frac()/4, evRetry)
			continue
		}
		src, _ := h.pop()
		for ; h.now >= boundary; boundary += tick {
			c, _ := s.byte()
			wait *= []float64{0.25, 0.5, 2, 3}[c%4]
			wait = min(max(wait, 1.0/128), 1) // a delay must not round away
		}
		if src != srcArrival {
			continue
		}
		h.tArr = h.now + gap*s.frac()
		c, _ := s.byte()
		switch c % 8 {
		case 0: // refused at admission: no timers
		case 1: // no hedge-delay estimate yet
			h.arm(h.now+deadline, evTimeout)
		case 2: // routed to a suspect node
			h.arm(h.now+deadline, evTimeout)
			h.arm(h.now+wait/4, evHedge)
		default:
			h.arm(h.now+deadline, evTimeout)
			h.arm(h.now+wait, evHedge)
		}
	}
	h.tArr = math.Inf(1)
	for {
		if _, ok := h.pop(); !ok {
			break
		}
	}
	return h
}

// matchPops requires the lane queue's pops to equal the reference's:
// the same times in order, and the same (kind, id) at every time that
// occurs once. Among pops sharing a time the single heap's order is
// container/heap's and depends on everything else on the heap, so
// there the two must pop the same set, and the lane queue must follow
// the documented tie order: heap, deadline lane, hedge lane, arrival.
// It returns how many pops shared their time with another.
func matchPops(tb testing.TB, got, want []popped) (tied int) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("lanes popped %d events, the single heap %d", len(got), len(want))
	}
	key := func(a, b popped) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.id, b.id))
	}
	for i := 0; i < len(got); {
		j := i + 1
		for j < len(got) && got[j].t == got[i].t {
			j++
		}
		if j-i > 1 {
			tied += j - i
		}
		for k := i; k < j; k++ {
			if want[k].t != got[i].t {
				tb.Fatalf("pop %d: lanes at %v, single heap at %v", k, got[i].t, want[k].t)
			}
			if k > i && got[k].src < got[k-1].src {
				tb.Fatalf("pops %d-%d at %v: source %d after %d breaks the tie order",
					k-1, k, got[k].t, got[k].src, got[k-1].src)
			}
		}
		g := slices.SortedFunc(slices.Values(got[i:j]), key)
		w := slices.SortedFunc(slices.Values(want[i:j]), key)
		for k := range g {
			if key(g[k], w[k]) != 0 {
				tb.Fatalf("pops %d-%d at %v: lanes gave %v, single heap %v", i, j-1, got[i].t, got[i:j], want[i:j])
			}
		}
		i = j
	}
	return tied
}

// TestTimerLanesMatchSingleHeap plays generated lane scripts and
// requires the exact (time, kind, id) pop sequence of one TimeHeap fed
// the same pushes: the scripts' due times are continuous, so nothing
// ties. Shrinking hedge waits and suspect hedges must send timers to
// the heap; deadlines, armed at a constant delay on a clock that never
// decreases, never may. Constructed ties then check the documented
// order: at equal times the heap top pops first, then the deadline
// lane, then the hedge lane, then the arrival; each lane is FIFO, and a
// deadline armed at the hedge lane's head time still goes first.
func TestTimerLanesMatchSingleHeap(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		spilledHedges := 0
		for seed := int64(1); seed <= 12; seed++ {
			h := runLaneScript(t, &laneScript{rng: rand.New(rand.NewSource(seed))}, 20000)
			if tied := matchPops(t, h.got, h.want); tied != 0 {
				t.Fatalf("seed %d: %d pops tied on a continuous script", seed, tied)
			}
			if n := h.q.deadlines.spilled; n != 0 {
				t.Fatalf("seed %d: %d deadlines fell back to the heap", seed, n)
			}
			if h.q.deadlines.tail < 0 || h.q.hedges.tail < 0 {
				t.Fatalf("seed %d: a lane was never used", seed)
			}
			spilledHedges += h.q.hedges.spilled
		}
		if spilledHedges == 0 {
			t.Fatal("no hedge timer fell back to the heap: the scripts never shrank the wait below the lane tail")
		}
	})

	type op struct {
		t    float64
		kind int8
		id   int32
	}
	ties := []struct {
		name   string
		ops    []op // evCompletion goes on the heap, timers through arm
		tArr   float64
		want   []popped
		spills int // hedges armed below the lane's tail
	}{
		{
			name: "every source at one time",
			ops: []op{
				{0.5, evTimeout, 1},
				{1, evHedge, 2},
				{1, evTimeout, 3},
				{1, evHedge, 4},
				{2, evHedge, 5},
				{1, evHedge, 6}, // below the hedge lane's tail: onto the heap
				{1, evCompletion, 7},
			},
			tArr: 1,
			want: []popped{
				{0.5, evTimeout, 1, srcDeadline},
				{1, evHedge, 6, srcHeap},
				{1, evCompletion, 7, srcHeap},
				{1, evTimeout, 3, srcDeadline},
				{1, evHedge, 2, srcHedge},
				{1, evHedge, 4, srcHedge},
				{1, evArrival, -1, srcArrival},
				{2, evHedge, 5, srcHedge},
			},
			spills: 1,
		},
		{
			name: "deadline armed at the hedge head",
			ops:  []op{{1, evHedge, 1}, {1, evTimeout, 2}},
			tArr: math.Inf(1),
			want: []popped{
				{1, evTimeout, 2, srcDeadline},
				{1, evHedge, 1, srcHedge},
			},
		},
	}
	for _, c := range ties {
		t.Run("ties/"+c.name, func(t *testing.T) {
			q := newEventQueue()
			for _, o := range c.ops {
				if o.kind == evCompletion {
					q.heap.Push(o.t, event{kind: o.kind, a: o.id})
				} else {
					q.arm(o.t, o.kind, o.id)
				}
			}
			tArr := c.tArr
			var got []popped
			for {
				src, tm := nextEvent(&q, tArr)
				if math.IsInf(tm, 1) {
					break
				}
				if src == srcArrival {
					got = append(got, popped{tm, evArrival, -1, srcArrival})
					tArr = math.Inf(1)
					continue
				}
				pt, ev := popEvent(&q, src)
				got = append(got, popped{pt, ev.kind, ev.a, src})
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("popped %v\nwant      %v", got, c.want)
			}
			if q.hedges.spilled != c.spills || q.deadlines.spilled != 0 {
				t.Errorf("%d hedges and %d deadlines spilled, want %d and 0",
					q.hedges.spilled, q.deadlines.spilled, c.spills)
			}
		})
	}
}

// FuzzTimerLanes runs the lane scripts of TestTimerLanesMatchSingleHeap
// decoded from fuzz bytes. Coarse byte-valued delays make equal due
// times common, so the pops are checked modulo the heap's own tie
// order, and the lane queue's ties against the documented order.
func FuzzTimerLanes(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			t.Skip()
		}
		h := runLaneScript(t, &laneScript{data: data}, len(data))
		matchPops(t, h.got, h.want)
		if n := h.q.deadlines.spilled; n != 0 {
			t.Fatalf("%d deadlines fell back to the heap", n)
		}
	})
}

// TestFleetDeadlinesNeverSpill runs the full request path — predictive
// hedging over slow and crashing nodes, deadlines, retries, breakers,
// hedge cancellation — at one and at three domains, and requires every
// deadline the fleet armed to have ridden its lane: the loop clock
// never runs backwards, at boundaries included. Hedge timers must use
// their lane too, and the shrinking waits and suspect hedges must
// still spill some onto the heap.
func TestFleetDeadlinesNeverSpill(t *testing.T) {
	for _, domains := range []int{1, 3} {
		t.Run(fmt.Sprintf("domains=%d", domains), func(t *testing.T) {
			t.Parallel()
			nodes, err := Uniform(12, platform.JunoR1(), workload.WebSearch())
			if err != nil {
				t.Fatal(err)
			}
			fl, err := New(Options{
				Nodes:      nodes,
				Pattern:    loadgen.Spike{Base: 0.5, Peak: 0.9, EverySecs: 8, SpikeSecs: 3},
				Mitigation: Predictive{},
				Domains:    domains,
				Seed:       5,
				Resilience: &resilience.Options{
					MaxRetries:   2,
					Timeout:      0.4,
					Backoff:      resilience.Backoff{Base: 0.02, Cap: 0.2, Jitter: 0.2},
					Breaker:      &resilience.BreakerOptions{FailureThreshold: 0.5, MinSamples: 5},
					CancelHedges: true,
				},
				Faults: &faults.Options{SlowRate: 0.08, SlowFactor: 0.3, CrashRate: 0.02, DownIntervals: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := fl.Run(40)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Timeouts == 0 || st.Hedges == 0 || st.PredFlags == 0 {
				t.Fatalf("the run exercised too little: %d timeouts, %d hedges, %d predictive flags",
					st.Timeouts, st.Hedges, st.PredFlags)
			}
			spilled := 0
			for _, l := range fl.domains {
				if n := l.events.deadlines.spilled; n != 0 {
					t.Errorf("domain %d: %d deadlines fell back to the heap", l.id, n)
				}
				if math.IsInf(l.events.deadlines.tail, -1) || math.IsInf(l.events.hedges.tail, -1) {
					t.Errorf("domain %d: a timer lane was never used", l.id)
				}
				spilled += l.events.hedges.spilled
			}
			if spilled == 0 {
				t.Error("no hedge timer fell back to the heap")
			}
		})
	}
}
