// Package batch models the throughput-oriented co-runners of the
// paper's HipsterCo experiments: SPEC CPU 2006 programs whose progress
// is observed only as instructions per second on each cluster, the BIPS
// and SIPS the paper reads from the perf counters.
//
// Each program is characterised by its per-core IPS on a big core and a
// small core at maximum DVFS, and by its memory intensity, which
// determines how IPS scales with frequency (memory-bound time does not
// shrink when the core clocks up) and how strongly the program suffers
// from and causes shared-resource contention.
package batch

import (
	"errors"
	"fmt"

	"hipster/internal/names"
	"hipster/internal/platform"
)

// Program is one batch application model.
type Program struct {
	Name string
	// BigIPS is one fully-utilised big core's IPS at maximum frequency.
	BigIPS float64
	// SmallIPS is one small core's IPS at its (fixed) frequency.
	SmallIPS float64
	// MemIntensity in [0,1] is the fraction of execution time stalled
	// on memory at maximum frequency.
	MemIntensity float64
}

// Validate checks the program parameters.
func (p Program) Validate() error {
	if p.Name == "" {
		return errors.New("batch: unnamed program")
	}
	if p.BigIPS <= 0 || p.SmallIPS <= 0 {
		return fmt.Errorf("batch %s: non-positive IPS", p.Name)
	}
	if p.MemIntensity < 0 || p.MemIntensity > 1 {
		return fmt.Errorf("batch %s: memory intensity out of [0,1]", p.Name)
	}
	return nil
}

// IPSOn returns the program's IPS on one core of the given kind at
// frequency f, before contention. Compute time scales with frequency;
// memory-stall time does not:
//
//	IPS(f) = IPSmax / ((1-m) * fmax/f + m)
func (p Program) IPSOn(spec *platform.Spec, kind platform.CoreKind, f platform.FreqMHz) float64 {
	c := spec.Cluster(kind)
	base := p.BigIPS
	if kind == platform.Small {
		base = p.SmallIPS
	}
	fmax := float64(c.MaxFreq())
	ff := float64(f)
	if ff <= 0 {
		return 0
	}
	m := p.MemIntensity
	return base / ((1-m)*fmax/ff + m)
}

// SpeedupBigOverSmall returns the per-core big/small throughput ratio at
// maximum DVFS.
func (p Program) SpeedupBigOverSmall() float64 { return p.BigIPS / p.SmallIPS }

// SPEC2006 returns the twelve SPEC CPU 2006 programs evaluated in
// Figure 11 of the paper. IPS values model the Juno R1 cores: the
// out-of-order A57 gains the most on compute-bound codes (calculix,
// povray) and the least on memory-bound ones (libquantum, lbm), matching
// the paper's observed 3.35x (calculix) to 1.6x (libquantum) collocation
// speedups.
func SPEC2006() []Program {
	return []Program{
		{Name: "povray", BigIPS: 3.10e9, SmallIPS: 0.674e9, MemIntensity: 0.05},
		{Name: "namd", BigIPS: 2.90e9, SmallIPS: 0.690e9, MemIntensity: 0.08},
		{Name: "gromacs", BigIPS: 2.80e9, SmallIPS: 0.700e9, MemIntensity: 0.10},
		{Name: "tonto", BigIPS: 2.60e9, SmallIPS: 0.684e9, MemIntensity: 0.12},
		{Name: "sjeng", BigIPS: 2.20e9, SmallIPS: 0.647e9, MemIntensity: 0.15},
		{Name: "calculix", BigIPS: 3.30e9, SmallIPS: 0.611e9, MemIntensity: 0.06},
		{Name: "cactusADM", BigIPS: 1.90e9, SmallIPS: 0.731e9, MemIntensity: 0.35},
		{Name: "lbm", BigIPS: 1.10e9, SmallIPS: 0.611e9, MemIntensity: 0.65},
		{Name: "astar", BigIPS: 1.50e9, SmallIPS: 0.625e9, MemIntensity: 0.30},
		{Name: "soplex", BigIPS: 1.40e9, SmallIPS: 0.636e9, MemIntensity: 0.40},
		{Name: "libquantum", BigIPS: 1.00e9, SmallIPS: 0.588e9, MemIntensity: 0.70},
		{Name: "zeusmp", BigIPS: 1.80e9, SmallIPS: 0.720e9, MemIntensity: 0.35},
	}
}

// ProgramNames lists the SPEC2006 program names in Figure 11 order.
func ProgramNames() []string {
	progs := SPEC2006()
	out := make([]string, len(progs))
	for i, p := range progs {
		out[i] = p.Name
	}
	return out
}

// ProgramByName returns a SPEC2006 program model by name, or an error
// (wrapping names.ErrUnknown) listing the valid names.
func ProgramByName(name string) (Program, error) {
	for _, p := range SPEC2006() {
		if p.Name == name {
			return p, nil
		}
	}
	return Program{}, names.Unknown("batch", "SPEC CPU 2006 program", name, ProgramNames())
}

// Grant describes the cores handed to the batch runner for one interval
// (Algorithm 2 lines 8-13: the cores not used by the LC workload).
type Grant struct {
	NBig      int
	NSmall    int
	BigFreq   platform.FreqMHz
	SmallFreq platform.FreqMHz
}

// Cores returns the total granted core count.
func (g Grant) Cores() int { return g.NBig + g.NSmall }

// StepResult reports one interval of batch execution.
type StepResult struct {
	// BigIPS / SmallIPS are the aggregate instruction rates on each
	// cluster (the BIPS and SIPS terms of Algorithm 1 line 13).
	BigIPS   float64
	SmallIPS float64
	// Instr is the total instructions retired this interval.
	Instr float64
}

// TotalIPS returns the aggregate rate.
func (r StepResult) TotalIPS() float64 { return r.BigIPS + r.SmallIPS }

// Runner executes a mix of batch programs on whatever cores it is
// granted each interval, assigning programs to cores round-robin. It
// tracks cumulative retired instructions and supports suspension
// (SIGSTOP/SIGCONT in the paper's implementation).
type Runner struct {
	programs  []Program
	suspended bool
	totInstr  float64
	rrOffset  int
}

// NewRunner builds a runner over a program mix; at least one program is
// required.
func NewRunner(programs []Program) (*Runner, error) {
	if len(programs) == 0 {
		return nil, errors.New("batch: empty program mix")
	}
	for _, p := range programs {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	cp := make([]Program, len(programs))
	copy(cp, programs)
	return &Runner{programs: cp}, nil
}

// Programs returns the job mix.
func (r *Runner) Programs() []Program {
	cp := make([]Program, len(r.programs))
	copy(cp, r.programs)
	return cp
}

// Suspend stops all batch jobs (SIGSTOP).
func (r *Runner) Suspend() { r.suspended = true }

// Resume restarts them (SIGCONT).
func (r *Runner) Resume() { r.suspended = false }

// Suspended reports the suspension state.
func (r *Runner) Suspended() bool { return r.suspended }

// TotalInstr returns cumulative instructions retired.
func (r *Runner) TotalInstr() float64 { return r.totInstr }

// Step runs the batch mix for dt seconds on the granted cores.
// slowdownBig and slowdownSmall are multiplicative throughput factors
// (<= 1) from the interference model, applied per cluster.
func (r *Runner) Step(spec *platform.Spec, g Grant, dt, slowdownBig, slowdownSmall float64) StepResult {
	res := StepResult{}
	if r.suspended || dt <= 0 || g.Cores() == 0 {
		return res
	}
	if slowdownBig <= 0 || slowdownBig > 1 {
		slowdownBig = 1
	}
	if slowdownSmall <= 0 || slowdownSmall > 1 {
		slowdownSmall = 1
	}
	bigF := g.BigFreq
	if bigF == 0 {
		bigF = spec.Big.MinFreq()
	}
	smallF := g.SmallFreq
	if smallF == 0 {
		smallF = spec.Small.MaxFreq()
	}
	idx := r.rrOffset
	next := func() Program {
		p := r.programs[idx%len(r.programs)]
		idx++
		return p
	}
	for i := 0; i < g.NBig; i++ {
		ips := next().IPSOn(spec, platform.Big, bigF) * slowdownBig
		res.BigIPS += ips
	}
	for i := 0; i < g.NSmall; i++ {
		ips := next().IPSOn(spec, platform.Small, smallF) * slowdownSmall
		res.SmallIPS += ips
	}
	r.rrOffset = idx % len(r.programs)
	res.Instr = res.TotalIPS() * dt
	r.totInstr += res.Instr
	return res
}

// MeanMemIntensity returns the average memory intensity of the mix,
// used by the interference model.
func (r *Runner) MeanMemIntensity() float64 {
	var s float64
	for _, p := range r.programs {
		s += p.MemIntensity
	}
	return s / float64(len(r.programs))
}

// MaxIPSOn returns the aggregate IPS the mix would achieve on n cores
// of kind k at the cluster's maximum frequency with no contention;
// used to normalise throughput rewards and reports.
func (r *Runner) MaxIPSOn(spec *platform.Spec, k platform.CoreKind, n int) float64 {
	c := spec.Cluster(k)
	var s float64
	for i := 0; i < n; i++ {
		p := r.programs[i%len(r.programs)]
		s += p.IPSOn(spec, k, c.MaxFreq())
	}
	return s
}
