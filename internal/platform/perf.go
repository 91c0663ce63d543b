package platform

import "fmt"

// CoreID identifies a physical core. Cores are numbered with the big
// cluster first: on Juno R1, cores 0-1 are Cortex-A57 and 2-5 are
// Cortex-A53.
type CoreID int

// Topology enumerates the physical cores of a platform.
type Topology struct {
	spec  *Spec
	kinds []CoreKind
}

// NewTopology builds the core enumeration for a spec.
func NewTopology(spec *Spec) *Topology {
	kinds := make([]CoreKind, 0, spec.TotalCores())
	for i := 0; i < spec.Big.Cores; i++ {
		kinds = append(kinds, Big)
	}
	for i := 0; i < spec.Small.Cores; i++ {
		kinds = append(kinds, Small)
	}
	return &Topology{spec: spec, kinds: kinds}
}

// NumCores returns the core count.
func (t *Topology) NumCores() int { return len(t.kinds) }

// Kind returns the kind of a core.
func (t *Topology) Kind(id CoreID) CoreKind {
	if int(id) < 0 || int(id) >= len(t.kinds) {
		panic(fmt.Sprintf("platform: core %d out of range", id))
	}
	return t.kinds[id]
}

// CoresOf lists the core IDs of one kind.
func (t *Topology) CoresOf(k CoreKind) []CoreID {
	var out []CoreID
	for i, kk := range t.kinds {
		if kk == k {
			out = append(out, CoreID(i))
		}
	}
	return out
}

// PerfReading is one interval's worth of per-core counter deltas as seen
// through the perf interface.
type PerfReading struct {
	// InstrPerCore holds the instructions retired by each core during
	// the interval, indexed by CoreID.
	InstrPerCore []float64
	// Garbage reports whether the reading is corrupted by the Juno
	// idle-state erratum. Corrupted readings must not be trusted.
	Garbage bool
}

// TotalInstr sums the per-core deltas.
func (r PerfReading) TotalInstr() float64 {
	var s float64
	for _, v := range r.InstrPerCore {
		s += v
	}
	return s
}

// PerfCounters models the per-core performance-counter interface (perf
// instructions events) including the Juno erratum the paper reports:
// whenever any core enters an idle state during the interval, every
// core's counters read garbage. Disabling CPUidle (as the paper does for
// HipsterCo) removes the corruption at the cost of higher idle power.
type PerfCounters struct {
	topo            *Topology
	cpuidleDisabled bool

	cumInstr []float64
	last     PerfReading
}

// NewPerfCounters builds counters for a topology.
func NewPerfCounters(topo *Topology, cpuidleDisabled bool) *PerfCounters {
	return &PerfCounters{
		topo:            topo,
		cpuidleDisabled: cpuidleDisabled,
		cumInstr:        make([]float64, topo.NumCores()),
	}
}

// CPUIdleDisabled reports the CPUidle setting.
func (p *PerfCounters) CPUIdleDisabled() bool { return p.cpuidleDisabled }

// Tick records one interval. instrPerCore is indexed by CoreID; anyIdle
// reports whether any core entered an idle state during the interval.
// The counter reuses one internal reading buffer, so a PerfReading
// obtained from LastInterval is valid until the next Tick.
func (p *PerfCounters) Tick(instrPerCore []float64, anyIdle bool) {
	if len(instrPerCore) != p.topo.NumCores() {
		panic(fmt.Sprintf("platform: perf tick with %d cores, topology has %d",
			len(instrPerCore), p.topo.NumCores()))
	}
	if p.last.InstrPerCore == nil {
		p.last.InstrPerCore = make([]float64, len(instrPerCore))
	}
	reading := PerfReading{InstrPerCore: p.last.InstrPerCore}
	if anyIdle && !p.cpuidleDisabled {
		// Erratum: all cores read garbage for this interval. A caller
		// must check Garbage and trust none of the values, so each
		// core reads one fixed, implausible count.
		reading.Garbage = true
		for i := range reading.InstrPerCore {
			reading.InstrPerCore[i] = 1e12
		}
	} else {
		copy(reading.InstrPerCore, instrPerCore)
		for i, v := range instrPerCore {
			p.cumInstr[i] += v
		}
	}
	p.last = reading
}

// LastInterval returns the most recent interval reading.
func (p *PerfCounters) LastInterval() PerfReading { return p.last }

// Cumulative returns a copy of the trustworthy cumulative counters
// (garbage intervals are excluded from the accumulation).
func (p *PerfCounters) Cumulative() []float64 {
	out := make([]float64, len(p.cumInstr))
	copy(out, p.cumInstr)
	return out
}
