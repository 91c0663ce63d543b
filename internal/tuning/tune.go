package tuning

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"hipster/internal/cluster"
)

// Weights parameterise the scalar objective (lower is better):
//
//	score = P99*p99 + QoSMiss*(1-qos) + PowerW*watts
//	      + CapW*max(0, watts-PowerCapW)
//
// averaged over the training seeds. The first three terms are the
// plain weighted tail + QoS + energy trade; the optional hinge term
// turns an energy budget into a soft constraint — fleet draw above
// PowerCapW is priced steeply, so candidates compete on tail and QoS
// only inside the budget. Setting PowerCapW to the untuned
// configuration's measured draw (as experiments.Tuning does) encodes
// "beat the default without burning more energy than it" directly
// into the search.
type Weights struct {
	// P99 prices a second of end-to-end tail latency (default 1).
	P99 float64 `json:"p99"`
	// QoSMiss prices a whole missed QoS fraction (default 5).
	QoSMiss float64 `json:"qos_miss"`
	// PowerW prices a watt of fleet mean power (default 0.1).
	PowerW float64 `json:"power_w"`
	// PowerCapW is the soft energy budget in watts; 0 disables the
	// hinge term.
	PowerCapW float64 `json:"power_cap_w,omitempty"`
	// CapW prices a watt of fleet draw above PowerCapW (default 10
	// whenever a budget is set).
	CapW float64 `json:"cap_w,omitempty"`
}

// DefaultWeights returns the documented objective defaults (no energy
// budget).
func DefaultWeights() Weights { return Weights{P99: 1, QoSMiss: 5, PowerW: 0.1} }

// withDefaults fills unset weights: an objective with all three
// prices zero (the zero value) takes DefaultWeights' prices and keeps
// its energy budget, and a budget without CapW gets the steep default.
// Options.validate cannot tell an explicit all-zero objective from the
// unset one, so callers that can (hipster tune) reject it themselves.
func (w Weights) withDefaults() Weights {
	if w.P99 == 0 && w.QoSMiss == 0 && w.PowerW == 0 {
		d := DefaultWeights()
		w.P99, w.QoSMiss, w.PowerW = d.P99, d.QoSMiss, d.PowerW
	}
	if w.PowerCapW > 0 && w.CapW == 0 {
		w.CapW = 10
	}
	return w
}

// Score folds one evaluation's metrics into the scalar objective.
func (w Weights) Score(m Metrics) float64 {
	s := w.P99*m.P99 + w.QoSMiss*(1-m.QoSAttainment) + w.PowerW*m.MeanPowerW
	if w.PowerCapW > 0 && m.MeanPowerW > w.PowerCapW {
		s += w.CapW * (m.MeanPowerW - w.PowerCapW)
	}
	return s
}

// Evaluator is the single-point evaluation the search runs hundreds of
// times: simulate configuration p under one training seed and report
// the objective inputs. Implementations MUST be pure in (p, seed) —
// clusterdes.Evaluate over a fleet built from p satisfies this — or
// the reproducibility contract is void.
type Evaluator func(p Point, seed int64) (Metrics, error)

// Options configure a tune run.
type Options struct {
	// Space is the search space (required; must Validate).
	Space Space

	// Evaluate is the single-point evaluation (required).
	Evaluate Evaluator

	// Seeds are the training seeds every candidate is evaluated under;
	// the objective is the seed-mean score (default {42, 43}).
	// Evaluating across several seeds is the search's only defence
	// against overfitting one arrival trace.
	Seeds []int64

	// Seed drives the search's own decisions (neighbor proposals,
	// restart points) on a dedicated stream, independent of the
	// evaluation seeds. It is taken as given: 0 is a seed like any other.
	Seed int64

	// Neighbors is the candidate batch proposed per hill-climbing round
	// (default 4).
	Neighbors int

	// MaxRounds bounds the hill-climbing rounds per restart (default 8).
	MaxRounds int

	// Patience is the convergence detector: a climb stops after this
	// many consecutive rounds without improvement (default 2).
	Patience int

	// Restarts is how many random restarts follow the default-point
	// climb; 0 runs the default-point climb alone.
	Restarts int

	// Workers parallelises candidate×seed evaluations on a cluster
	// worker pool; 0 means GOMAXPROCS. Results do not depend on it.
	Workers int

	// Weights parameterise the objective (zero value: DefaultWeights).
	Weights Weights
}

// withDefaults fills unset knobs.
func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{42, 43}
	}
	if o.Neighbors == 0 {
		o.Neighbors = 4
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 8
	}
	if o.Patience == 0 {
		o.Patience = 2
	}
	o.Weights = o.Weights.withDefaults()
	return o
}

// validate rejects unusable options after defaulting.
func (o Options) validate() error {
	if err := o.Space.Validate(); err != nil {
		return err
	}
	if o.Evaluate == nil {
		return fmt.Errorf("tuning: Options.Evaluate is required")
	}
	switch {
	case o.Neighbors < 1:
		return fmt.Errorf("tuning: Neighbors %d must be at least 1", o.Neighbors)
	case o.MaxRounds < 1:
		return fmt.Errorf("tuning: MaxRounds %d must be at least 1", o.MaxRounds)
	case o.Patience < 1:
		return fmt.Errorf("tuning: Patience %d must be at least 1", o.Patience)
	case o.Restarts < 0:
		return fmt.Errorf("tuning: Restarts %d must not be negative", o.Restarts)
	case o.Weights.P99 < 0 || o.Weights.QoSMiss < 0 || o.Weights.PowerW < 0 ||
		o.Weights.PowerCapW < 0 || o.Weights.CapW < 0:
		return fmt.Errorf("tuning: negative objective weight %+v", o.Weights)
	}
	return nil
}

// Result is a finished tune run: the winning configuration plus the
// full evaluation ledger, serializable as the reproducible artifact.
// Two runs with identical Options produce identical Results — and
// identical JSON bytes — at any worker count.
type Result struct {
	// Space records the searched space, so the artifact is
	// self-describing and replayable.
	Space Space `json:"space"`
	// Seeds are the training seeds used.
	Seeds []int64 `json:"seeds"`
	// Weights are the objective weights used.
	Weights Weights `json:"weights"`
	// SearchSeed is the decision-stream seed.
	SearchSeed int64 `json:"search_seed"`
	// Winner is the best-scoring evaluation of the whole run.
	Winner Evaluation `json:"winner"`
	// DefaultEval is the untuned configuration's evaluation — the
	// baseline every improvement claim is made against.
	DefaultEval Evaluation `json:"default"`
	// Evaluations is the full dedup'd ledger, in evaluation order.
	Evaluations []Evaluation `json:"evaluations"`
	// Rounds counts hill-climbing rounds run across all restarts;
	// Converged reports whether every climb ended by patience rather
	// than by the MaxRounds cap.
	Rounds    int  `json:"rounds"`
	Converged bool `json:"converged"`

	winnerPoint Point
}

// WinnerPoint returns the winning configuration as a Point over
// Result.Space.
func (r Result) WinnerPoint() Point {
	if r.winnerPoint != nil {
		return r.winnerPoint
	}
	return r.Space.pointOf(r.Winner.Settings)
}

// pointOf reconstructs a Point from artifact settings (inverse of
// Settings); unknown or missing dimensions surface as an error from
// Validate-time use, here they simply yield the default.
func (s Space) pointOf(settings []Setting) Point {
	p := s.Default()
	for _, set := range settings {
		i := s.Index(set.Name)
		if i < 0 {
			continue
		}
		if s.Dims[i].Kind == Categorical {
			for vi, v := range s.Dims[i].Values {
				if v == set.Value {
					p[i] = float64(vi)
					break
				}
			}
		} else {
			p[i] = set.Number
		}
	}
	return p
}

// Tune runs the search: a hill climb from the space's default
// configuration, then Restarts climbs from random points, every
// candidate batch evaluated across the training seeds in parallel on
// a cluster worker pool. Search decisions (proposals, restart points,
// acceptance) consume only the dedicated Seed stream and the stored
// scores, never wall-clock or completion order, so the same Options
// reproduce the same Result at any Workers value.
func Tune(o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Result{}, err
	}
	run := &tuneRun{
		o:     o,
		store: NewStore(o.Space),
		rng:   rand.New(rand.NewSource(o.Seed)),
		pool:  cluster.NewPool(o.Workers),
	}
	defer run.pool.Close()

	res := Result{
		Space:      o.Space,
		Seeds:      o.Seeds,
		Weights:    o.Weights,
		SearchSeed: o.Seed,
	}

	// Restart -1 is the climb from the untuned default; the rest climb
	// from random points drawn off the search stream.
	for restart := -1; restart <= o.Restarts-1; restart++ {
		start := o.Space.Default()
		if restart >= 0 {
			start = RandomPoint(run.rng, o.Space)
		}
		converged, err := run.climb(start, restart+1)
		if err != nil {
			return Result{}, err
		}
		if restart == -1 {
			res.Converged = converged
		} else {
			res.Converged = res.Converged && converged
		}
	}

	res.Evaluations = run.store.Evaluations()
	res.Rounds = run.rounds
	def, _ := run.store.Lookup(o.Space.Default())
	res.DefaultEval = def
	best := def
	for _, e := range res.Evaluations {
		// Strict < keeps the earliest evaluation on ties, independent
		// of ledger construction details.
		if e.Score < best.Score {
			best = e
		}
	}
	res.Winner = best
	res.winnerPoint = o.Space.pointOf(best.Settings)
	return res, nil
}

// tuneRun is the mutable state of one Tune call.
type tuneRun struct {
	o      Options
	store  *Store
	rng    *rand.Rand
	pool   *cluster.Pool
	rounds int
}

// climb hill-climbs from start until Patience rounds pass without
// improvement or MaxRounds is hit; it reports whether it ended by
// convergence.
func (r *tuneRun) climb(start Point, restart int) (bool, error) {
	// A restart may land on an already-evaluated config (likely only in
	// small discrete spaces); reuse its ledger entry instead of
	// re-evaluating.
	curBest, ok := r.store.Lookup(start)
	if !ok {
		cur, err := r.evaluateAll([]Point{start}, 0, restart)
		if err != nil {
			return false, err
		}
		curBest = cur[0]
	}
	noImprove := 0
	for round := 1; round <= r.o.MaxRounds; round++ {
		if noImprove >= r.o.Patience {
			return true, nil
		}
		r.rounds++
		cands := r.propose(curBest)
		if len(cands) == 0 {
			// The neighborhood is exhausted (every proposal already
			// evaluated) — as converged as a finite space gets.
			return true, nil
		}
		evals, err := r.evaluateAll(cands, round, restart)
		if err != nil {
			return false, err
		}
		best := evals[0]
		for _, e := range evals[1:] {
			if e.Score < best.Score {
				best = e
			}
		}
		if best.Score < curBest.Score {
			curBest = best
			noImprove = 0
		} else {
			noImprove++
		}
	}
	return noImprove >= r.o.Patience, nil
}

// propose draws up to Neighbors fresh (never-evaluated) candidates
// around the current point, skipping duplicates within the batch and
// against the store; a bounded number of redraws keeps a mostly-seen
// neighborhood from spinning forever.
func (r *tuneRun) propose(from Evaluation) []Point {
	origin := r.o.Space.pointOf(from.Settings)
	var out []Point
	batch := make(map[string]bool, r.o.Neighbors)
	for tries := 0; len(out) < r.o.Neighbors && tries < 20*r.o.Neighbors; tries++ {
		p := Neighbor(r.rng, r.o.Space, origin)
		key := r.o.Space.Key(p)
		if batch[key] || r.store.Seen(p) {
			continue
		}
		batch[key] = true
		out = append(out, p)
	}
	return out
}

// evaluateAll runs every candidate under every training seed on the
// worker pool — one pool index per (candidate, seed) pair, each
// writing only its own slot — then folds the per-seed metrics into
// ledger entries serially, in candidate order. The ledger therefore
// depends only on the proposal order, never on evaluation timing.
func (r *tuneRun) evaluateAll(cands []Point, round, restart int) ([]Evaluation, error) {
	seeds := r.o.Seeds
	type slot struct {
		m   Metrics
		err error
	}
	slots := make([]slot, len(cands)*len(seeds))
	r.pool.Do(len(slots), func(i int) {
		c, s := i/len(seeds), i%len(seeds)
		m, err := r.o.Evaluate(cands[c], seeds[s])
		slots[i] = slot{m, err}
	})
	out := make([]Evaluation, len(cands))
	for c, p := range cands {
		e := Evaluation{
			Key:      r.o.Space.Key(p),
			Settings: r.o.Space.Settings(p),
			Round:    round,
			Restart:  restart,
			Seeds:    seeds,
			PerSeed:  make([]Metrics, len(seeds)),
		}
		var sum float64
		for s := range seeds {
			sl := slots[c*len(seeds)+s]
			if sl.err != nil {
				return nil, fmt.Errorf("tuning: evaluate %s under seed %d: %w", e.Key, seeds[s], sl.err)
			}
			e.PerSeed[s] = sl.m
			sum += r.o.Weights.Score(sl.m)
		}
		e.Score = sum / float64(len(seeds))
		if math.IsNaN(e.Score) {
			return nil, fmt.Errorf("tuning: evaluate %s: NaN score", e.Key)
		}
		r.store.Add(e)
		out[c] = e
	}
	return out, nil
}

// WriteJSON serializes the result as the reproducible artifact: same
// Result, same bytes. The encoding uses only ordered slices — no maps
// — so byte identity follows from value identity.
func (r Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the JSON artifact to path.
func (r Result) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a tuning artifact written by WriteFile.
func ReadFile(path string) (Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Result{}, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return Result{}, fmt.Errorf("tuning: parse %s: %w", path, err)
	}
	if err := r.Space.Validate(); err != nil {
		return Result{}, fmt.Errorf("tuning: artifact %s: %w", path, err)
	}
	if !r.Space.Contains(r.Space.pointOf(r.Winner.Settings)) {
		return Result{}, fmt.Errorf("tuning: artifact %s: winner outside its own space", path)
	}
	return r, nil
}
