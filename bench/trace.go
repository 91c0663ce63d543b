package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hipster/internal/autoscale"
	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/core"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/policy"
)

// recorder takes timestamps at the fleet's injected interfaces, from
// outside the program. Untraced, it only stamps interval boundaries,
// and takes the reference slices there: the DES calls Pattern.LoadAt
// exactly once per interval (serial and sharded loops alike), and the
// benchmark calls cluster.Step itself.
// Traced, it also times the splitter, the scaling policy and every node
// policy, keeping one record per interval from which spans and
// per-layer metrics are derived. Every hook runs on the coordinator's
// goroutine except node policies in interval mode, which run on the
// worker pool and keep per-node counters that the coordinator harvests
// at the next boundary.
type recorder struct {
	base    time.Time
	traced  bool
	horizon float64
	// ivs holds one record per interval; the last one is still open.
	ivs   []ivRecord
	nodes []*tracedPolicy
	// rounds reads the DES fleet's federation round count; the scaling
	// hook uses it to flag sync boundaries.
	rounds func() int
	last   int
	// ref, while the run is timed, takes reference slices at boundaries.
	ref *refSlicer
}

// ivRecord is one interval's hook timestamps, in ns since base; zero
// means the hook did not fire.
type ivRecord struct {
	start, end     int64
	split0, split1 int64
	dec0, dec1     int64 // first policy decision's start, last one's end
	decides        int
	decideNs       int64 // summed over every node's decisions
	scale0, scale1 int64 // scaling-policy call
	synced         bool  // a federation sync round ran at this boundary
}

func newRecorder(traced bool, horizon float64) *recorder {
	return &recorder{
		base:    time.Now(),
		traced:  traced,
		horizon: horizon,
		ivs:     make([]ivRecord, 0, int(horizon)+2),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) current() *ivRecord { return &r.ivs[len(r.ivs)-1] }

// boundary closes the open interval at t and opens the next, after a
// reference slice if one is due.
func (r *recorder) boundary(t int64) {
	if len(r.ivs) > 0 {
		iv := r.current()
		iv.end = t
		for _, p := range r.nodes {
			if p.n == 0 {
				continue
			}
			if iv.decides == 0 || p.first < iv.dec0 {
				iv.dec0 = p.first
			}
			iv.dec1 = max(iv.dec1, p.last)
			iv.decides += p.n
			iv.decideNs += p.ns
			p.n, p.ns = 0, 0
		}
	}
	if r.ref != nil && r.ref.slice() {
		t = r.now()
	}
	r.ivs = append(r.ivs, ivRecord{start: t})
}

// closed returns the finished intervals.
func (r *recorder) closed() []ivRecord {
	if len(r.ivs) == 0 {
		return nil
	}
	return r.ivs[:len(r.ivs)-1]
}

// intervalMs returns each finished interval's host time.
func (r *recorder) intervalMs() []float64 {
	ivs := r.closed()
	out := make([]float64, len(ivs))
	for i, iv := range ivs {
		out[i] = float64(iv.end-iv.start) / 1e6
	}
	return out
}

// pattern wraps the DES load pattern. Load is zero from the horizon on,
// so the fleet can be drained after the timed run for an exact request
// ledger; nothing recorded by the timed run depends on it.
func (r *recorder) pattern(p loadgen.Pattern) loadgen.Pattern { return patternHook{p, r} }

type patternHook struct {
	loadgen.Pattern
	r *recorder
}

func (p patternHook) LoadAt(t float64) float64 {
	if t > p.r.horizon {
		return 0
	}
	p.r.boundary(p.r.now())
	if t == p.r.horizon {
		return 0
	}
	return p.Pattern.LoadAt(t)
}

func (r *recorder) splitter(s cluster.Splitter) cluster.Splitter {
	if !r.traced {
		return s
	}
	return splitHook{s, r}
}

type splitHook struct {
	cluster.Splitter
	r *recorder
}

func (s splitHook) Split(ctx cluster.SplitContext) []float64 {
	t0 := s.r.now()
	shares := s.Splitter.Split(ctx)
	iv := s.r.current()
	iv.split0, iv.split1 = t0, s.r.now()
	return shares
}

func (r *recorder) scaler(p autoscale.Policy) autoscale.Policy {
	if !r.traced {
		return p
	}
	return scaleHook{p, r}
}

type scaleHook struct {
	autoscale.Policy
	r *recorder
}

func (s scaleHook) Desired(ctx autoscale.Context) int {
	t0 := s.r.now()
	d := s.Policy.Desired(ctx)
	iv := s.r.current()
	iv.scale0, iv.scale1 = t0, s.r.now()
	// The DES runs its federation round just before the scaling
	// decision, in the same boundary.
	if s.r.rounds != nil {
		n := s.r.rounds()
		iv.synced = n != s.r.last
		s.r.last = n
	}
	return d
}

// tracedPolicy times a node's Hipster manager. Embedding keeps every
// optional interface (TableProvider, Phaser, RewardReporter, Episodic)
// visible to the fleet and its federation.
type tracedPolicy struct {
	*core.Manager
	r               *recorder
	n               int
	ns, first, last int64
}

func (p *tracedPolicy) Decide(obs policy.Observation) platform.Config {
	t0 := p.r.now()
	c := p.Manager.Decide(obs)
	t1 := p.r.now()
	if p.n == 0 {
		p.first = t0
	}
	p.n++
	p.ns += t1 - t0
	p.last = t1
	return c
}

func (r *recorder) policy(m *core.Manager) policy.Policy {
	if !r.traced {
		return m
	}
	p := &tracedPolicy{Manager: m, r: r}
	r.nodes = append(r.nodes, p)
	return p
}

// desPolicies returns the DES node-policy builder: nil (the fleet's own
// default) untraced, and the same default manager behind a tracedPolicy
// when traced, so equal model hashes prove the wrappers inert.
func (r *recorder) desPolicies(spec *platform.Spec, seed int64) func(int) (policy.Policy, error) {
	if !r.traced {
		return nil
	}
	return func(id int) (policy.Policy, error) {
		m, err := core.New(core.In, spec, core.DefaultParams(), seed+int64(id))
		if err != nil {
			return nil, err
		}
		return r.policy(m), nil
	}
}

// layerTimes derives the span-based per-layer metrics from the interval
// records. requests is the run's simulated request count.
func (r *recorder) layerTimes(des bool, workers int, requests float64) map[string]float64 {
	ivs := r.closed()
	self := selfNs(ivs, des, workers)
	var total, selfSum, loop, learn, mid, tail, decide int64
	var splits, synced, plain []float64
	for k, iv := range ivs {
		total += iv.end - iv.start
		selfSum += self[k]
		decide += iv.decideNs
		if iv.split1 > 0 {
			splits = append(splits, float64(iv.split1-iv.split0)/1e3)
		}
		// post is what follows the last policy decision: the DES mid
		// boundary (resilience roll, merge, faults, detector,
		// federation) or the interval mode's federation and merge.
		post := int64(-1)
		if des {
			next := iv.end
			switch {
			case iv.decides > 0:
				next = iv.dec0
				learn += iv.dec1 - iv.dec0
			case iv.scale1 > 0:
				next = iv.scale0
			}
			loop += next - iv.split1
			if iv.scale1 > 0 {
				tail += iv.end - iv.scale0
				if iv.decides > 0 {
					post = iv.scale0 - iv.dec1
					mid += post
				}
			}
		} else if iv.decides > 0 {
			post = iv.end - iv.dec1
		}
		if post >= 0 {
			if iv.synced {
				synced = append(synced, float64(post))
			} else {
				plain = append(plain, float64(post))
			}
		}
	}
	pct := func(x int64) float64 { return 100 * float64(x) / float64(total) }
	selfMs := make([]float64, len(self))
	for k, ns := range self {
		selfMs[k] = float64(ns) / 1e6
	}
	m := map[string]float64{
		"interval_self_ms":             median(selfMs),
		"ns_per_req":                   float64(selfSum) / requests,
		"cluster.split_us":             median(splits),
		"core.decide_share":            pct(decide),
		"clusterdes.loop_pct":          pct(loop),
		"clusterdes.learnstep_pct":     pct(learn),
		"clusterdes.boundary_mid_pct":  pct(mid),
		"clusterdes.boundary_tail_pct": pct(tail),
		"federation.sync_extra_pct":    0,
	}
	if len(synced) > 0 && len(plain) > 0 {
		m["federation.sync_extra_pct"] = 100 * (median(synced) - median(plain)) / 1e6 / median(r.intervalMs())
	}
	return m
}

// selfNs returns each interval's host time minus its traced children:
// the splitter and scaling-policy calls, and the policy decisions — the
// serial learning step in the DES, the summed decision time over the
// workers in interval mode.
func selfNs(ivs []ivRecord, des bool, workers int) []int64 {
	out := make([]int64, len(ivs))
	for k, iv := range ivs {
		self := (iv.end - iv.start) - (iv.split1 - iv.split0) - (iv.scale1 - iv.scale0)
		switch {
		case !des:
			self -= iv.decideNs / int64(workers)
		case iv.decides > 0:
			self -= iv.dec1 - iv.dec0
		}
		out[k] = self
	}
	return out
}

// traceLayers fills the traced run's per-layer metrics — span-derived
// times, the run's layer counts, and the primitive timings — and writes
// its spans.
func traceLayers(res *repResult, rec *recorder, spec childSpec, des bool, workers int, in probeInput, counts map[string]float64) {
	layer := rec.layerTimes(des, workers, res.Requests)
	for k, v := range counts {
		layer[k] = v
	}
	prims, err := primitives(in, spec.Seed)
	if err != nil {
		res.problem("%v", err)
	}
	for k, v := range prims {
		layer[k] = v
	}
	res.Layer = layer
	run := fmt.Sprintf("%s/seed=%d", spec.Workload, spec.Seed)
	if err := rec.writeSpans(spec.Spans, run, des); err != nil {
		res.problem("spans: %v", err)
	}
}

// decides counts the node-policy decisions of the finished intervals.
func (r *recorder) decides() float64 {
	n := 0
	for _, iv := range r.closed() {
		n += iv.decides
	}
	return float64(n)
}

// desCounts is the DES run's per-layer work, waste and fault counts.
func desCounts(out clusterdes.Result, rec *recorder) map[string]float64 {
	st := out.Stats
	win := 0.0
	if st.Hedges > 0 {
		win = float64(st.HedgeWins) / float64(st.Hedges)
	}
	return map[string]float64{
		"hedges":                   float64(st.Hedges),
		"hedge_win_ratio":          win,
		"steals":                   float64(st.Steals),
		"cross_domain_exchanges":   float64(st.CrossDomainHedges + st.CrossDomainSteals + st.CrossDomainMigrations),
		"migrated":                 float64(st.Migrated),
		"core.decides":             rec.decides(),
		"federation.sync_rounds":   float64(st.SyncRounds),
		"warm_starts":              float64(st.WarmStarts),
		"flushes":                  float64(st.Flushes),
		"ups":                      float64(st.Ups),
		"downs":                    float64(st.Downs),
		"warmup_intervals":         float64(st.WarmupIntervals),
		"retries":                  float64(st.Retries),
		"timeouts":                 float64(st.Timeouts),
		"breaker_opens":            float64(st.BreakerOpens),
		"hedge_cancels":            float64(st.HedgeCancels),
		"resilience.attempt_yield": float64(out.Latency.Completed) / float64(st.Requests+st.Retries),
		"crashes":                  float64(st.Crashes),
		"revocations":              float64(st.Revocations),
		"partitions":               float64(st.Partitions),
		"lost":                     float64(st.Lost),
		"pred_flags":               float64(st.PredFlags),
		"pred_migrations":          float64(st.PredMigrations),
	}
}

// intervalCounts is the interval-mode run's counts; the request-path
// layers (mitigation, resilience, faults) do not exist there and read 0.
func intervalCounts(cl *cluster.Cluster, rec *recorder) map[string]float64 {
	fed, _ := cl.FederationStats()
	as, _ := cl.AutoscaleStats()
	m := map[string]float64{
		"core.decides":           rec.decides(),
		"federation.sync_rounds": float64(fed.Rounds),
		"warm_starts":            float64(as.WarmStarts),
		"flushes":                float64(as.Flushes),
		"ups":                    float64(as.Ups),
		"downs":                  float64(as.Downs),
	}
	for _, name := range []string{"hedges", "hedge_win_ratio", "steals", "cross_domain_exchanges", "migrated",
		"warmup_intervals", "retries", "timeouts", "breaker_opens", "hedge_cancels", "resilience.attempt_yield",
		"crashes", "revocations", "partitions", "lost", "pred_flags", "pred_migrations"} {
		m[name] = 0
	}
	return m
}

// span is one line of the spans file.
type span struct {
	Run      string `json:"run"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Interval int    `json:"interval"`
}

// writeSpans writes one span per interval with its traced children: the
// splitter call, the scaling-policy call, and (DES) the serial learning
// step from the first policy decision to the last. Interval-mode policy
// decisions overlap on the pool and are reported only as totals.
func (r *recorder) writeSpans(path, run string, des bool) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	for k, iv := range r.closed() {
		id++
		root := id
		if err := enc.Encode(span{run, root, 0, "interval", iv.start, iv.end, k}); err != nil {
			return err
		}
		for _, c := range []struct {
			name   string
			t0, t1 int64
			ok     bool
		}{
			{"cluster.split", iv.split0, iv.split1, iv.split1 > 0},
			{"clusterdes.learnstep", iv.dec0, iv.dec1, des && iv.decides > 0},
			{"autoscale.desired", iv.scale0, iv.scale1, iv.scale1 > 0},
		} {
			if !c.ok {
				continue
			}
			id++
			if err := enc.Encode(span{run, id, root, c.name, c.t0, c.t1, k}); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
