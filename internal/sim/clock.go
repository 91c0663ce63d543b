package sim

import "fmt"

// IntervalSecs is the monitoring interval, in seconds, of every
// simulator built on Clock: the single-node engine, the interval-mode
// cluster and the cluster DES all sample and decide once per second
// (§3.6).
const IntervalSecs float64 = 1

// Clock advances simulated time in fixed monitoring intervals, mirroring
// the paper's one-second sampling interval (§3.6). Time is expressed in
// seconds as float64 throughout the simulator.
type Clock struct {
	interval float64
	now      float64
	steps    int
}

// NewClock returns a clock that advances by interval seconds per step.
// It panics if interval is not strictly positive: a zero interval would
// stall every policy loop built on top of it.
func NewClock(interval float64) *Clock {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock interval %v", interval))
	}
	return &Clock{interval: interval}
}

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Interval returns the monitoring interval in seconds.
func (c *Clock) Interval() float64 { return c.interval }

// Steps returns how many intervals have elapsed.
func (c *Clock) Steps() int { return c.steps }

// Tick advances the clock by one interval and returns the new time.
func (c *Clock) Tick() float64 {
	c.steps++
	c.now = float64(c.steps) * c.interval
	return c.now
}

// Reset rewinds the clock to time zero.
func (c *Clock) Reset() {
	c.now = 0
	c.steps = 0
}
