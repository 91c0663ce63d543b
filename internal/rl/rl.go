// Package rl implements the reinforcement-learning machinery of Hipster
// (§3.1, §3.4): the load-bucket quantiser that defines the MDP state,
// the lookup table R(w, c) of total discounted rewards, the Algorithm 1
// reward calculation, and the Q-learning-style table update.
package rl

import (
	"fmt"
	"math"

	"hipster/internal/platform"
)

// Quantizer maps a measured load fraction to a discrete bucket
// (the MDP state w). BucketFrac is the bucket width as a fraction of
// maximum load (Figure 10 sweeps 2%-9%).
type Quantizer struct {
	BucketFrac float64
}

// NewQuantizer validates the bucket width.
func NewQuantizer(bucketFrac float64) (Quantizer, error) {
	if bucketFrac <= 0 || bucketFrac > 1 {
		return Quantizer{}, fmt.Errorf("rl: bucket fraction %v out of (0,1]", bucketFrac)
	}
	return Quantizer{BucketFrac: bucketFrac}, nil
}

// NumBuckets returns the number of states T: the buckets covering
// [0, 1) plus one for load at or above 100%.
func (q Quantizer) NumBuckets() int {
	return int(math.Ceil(1/q.BucketFrac-1e-9)) + 1
}

// Bucket maps a load fraction to [0, NumBuckets).
func (q Quantizer) Bucket(loadFrac float64) int {
	if loadFrac < 0 {
		loadFrac = 0
	}
	b := int(loadFrac / q.BucketFrac)
	if max := q.NumBuckets() - 1; b > max {
		b = max
	}
	return b
}

// BucketCenter returns the representative load fraction of a bucket.
// The overflow (>= 100% load) bucket has no upper edge, so its center
// is clamped to 1.0 rather than extrapolating past full load.
func (q Quantizer) BucketCenter(b int) float64 {
	c := (float64(b) + 0.5) * q.BucketFrac
	if c > 1 {
		c = 1
	}
	return c
}

// Table is the lookup table R(w, c): for each load bucket w and action
// (configuration) c, the estimated total discounted reward. The paper's
// prototype uses a hash table; a dense matrix gives the same O(1)
// access with better locality for the small state spaces involved.
//
// The matrix is flat: the values live in one row-major states×actions
// array, cell (w, c) at index w·actions+c, and the per-cell visit
// counts in a second array of the same layout, so a table is three
// allocations whatever its state count, and checkpoints, deltas and
// federation broadcasts are flat copies and scans. Snapshot,
// VisitsSnapshot and Save still hand out one row per state.
type Table struct {
	actions []platform.Config
	states  int
	vals    []float64
	visits  []int
}

// NewTable builds a zeroed table over nStates buckets and the given
// action list (the configuration space, in ladder order so that index
// ties break toward lower power).
func NewTable(nStates int, actions []platform.Config) (*Table, error) {
	if nStates <= 0 {
		return nil, fmt.Errorf("rl: non-positive state count %d", nStates)
	}
	if len(actions) == 0 {
		return nil, fmt.Errorf("rl: empty action space")
	}
	cp := make([]platform.Config, len(actions))
	copy(cp, actions)
	return &Table{
		actions: cp,
		states:  nStates,
		vals:    make([]float64, nStates*len(actions)),
		visits:  make([]int, nStates*len(actions)),
	}, nil
}

// valRow and visitRow return a state's row of each matrix. Indexing a
// row panics on an action outside the table, as a nested row would.
func (t *Table) valRow(state int) []float64 {
	n := len(t.actions)
	return t.vals[state*n : state*n+n]
}

func (t *Table) visitRow(state int) []int {
	n := len(t.actions)
	return t.visits[state*n : state*n+n]
}

// NumStates returns the number of buckets.
func (t *Table) NumStates() int { return t.states }

// NumActions returns the size of the action space.
func (t *Table) NumActions() int { return len(t.actions) }

// Actions returns the action space.
func (t *Table) Actions() []platform.Config {
	cp := make([]platform.Config, len(t.actions))
	copy(cp, t.actions)
	return cp
}

// Action returns the configuration for an action index.
func (t *Table) Action(i int) platform.Config { return t.actions[i] }

// ActionIndex locates a configuration in the action space, or -1.
func (t *Table) ActionIndex(c platform.Config) int {
	for i, a := range t.actions {
		if a == c {
			return i
		}
	}
	return -1
}

// Value returns R(w, c).
func (t *Table) Value(state, action int) float64 { return t.valRow(state)[action] }

// Visits returns how many updates hit (state, action).
func (t *Table) Visits(state, action int) int { return t.visitRow(state)[action] }

// StateVisits returns total updates in a state.
func (t *Table) StateVisits(state int) int {
	n := 0
	for _, v := range t.visitRow(state) {
		n += v
	}
	return n
}

// Best returns the argmax action for a state; ties break toward the
// lowest index (cheapest configuration in ladder order).
func (t *Table) Best(state int) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range t.valRow(state) {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// MaxValue returns max_d R(state, d), the bootstrap term of line 16.
func (t *Table) MaxValue(state int) float64 {
	return t.valRow(state)[t.Best(state)]
}

// Update applies Algorithm 1 line 16:
//
//	R(w,c) += alpha * (reward + gamma*max_d R(w',d) - R(w,c))
func (t *Table) Update(state, action, nextState int, reward, alpha, gamma float64) {
	row := t.valRow(state)
	cur := row[action]
	row[action] = cur + alpha*(reward+gamma*t.MaxValue(nextState)-cur)
	t.visitRow(state)[action]++
}

// Rows copies a flat row-major matrix, such as a table's values or
// visit counts, into one row per state of the given width. Each row's
// capacity ends at its last cell, so appending to one cannot overwrite
// the next.
func Rows[E any](flat []E, width int) [][]E {
	cp := append([]E(nil), flat...)
	out := make([][]E, len(flat)/width)
	for s := range out {
		out[s] = cp[s*width : (s+1)*width : (s+1)*width]
	}
	return out
}

// Snapshot copies the value matrix, one row per state (for inspection
// and tests).
func (t *Table) Snapshot() [][]float64 { return Rows(t.vals, len(t.actions)) }

// RewardInput carries the interval measurements Algorithm 1 consumes.
type RewardInput struct {
	// TailLatency / Target define QoScurr and QoStarget.
	TailLatency float64
	Target      float64
	// PowerW and TDPW feed the HipsterIn power reward.
	PowerW float64
	TDPW   float64
	// HasBatch selects the HipsterCo throughput reward; BigIPS/SmallIPS
	// are the measured batch rates and MaxBigIPS/MaxSmallIPS the
	// maxIPS(B)/maxIPS(S) normalisers.
	HasBatch    bool
	BigIPS      float64
	SmallIPS    float64
	MaxBigIPS   float64
	MaxSmallIPS float64
	// Rand is a pre-drawn uniform [0,1) sample for the stochastic
	// penalty term (line 9); drawing it outside keeps Reward pure.
	Rand float64
}

// Reward implements Algorithm 1 lines 1-15.
func Reward(in RewardInput, qosD float64) float64 {
	qosReward := in.TailLatency / in.Target
	var lam float64
	switch {
	case in.TailLatency < in.Target*qosD:
		// Below the danger zone: positive reward preferring
		// configurations that approach the target (QoS earliness).
		lam = qosReward + 1
	case in.TailLatency < in.Target:
		// Inside the danger zone but not violating: stochastic penalty
		// keeps some pressure to explore away.
		lam = qosReward + 1 - in.Rand
	default:
		// Violation: punish by the tardiness.
		lam = -qosReward - 1
	}
	if in.HasBatch {
		denom := in.MaxBigIPS + in.MaxSmallIPS
		if denom > 0 {
			lam += (in.BigIPS + in.SmallIPS) / denom
		}
	} else if in.PowerW > 0 {
		lam += in.TDPW / in.PowerW
	}
	return lam
}
