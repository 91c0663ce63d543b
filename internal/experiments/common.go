// Package experiments contains one harness per table and figure of the
// paper's evaluation (cmd/paperfigs lists them by name). Each harness
// returns a structured result that cmd/paperfigs renders in the paper's
// row/series format; benchmarks in the repository root regenerate every
// artefact.
package experiments

import (
	"hipster/internal/core"
	"hipster/internal/engine"
	"hipster/internal/heuristic"
	"hipster/internal/loadgen"
	"hipster/internal/names"
	"hipster/internal/octopusman"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/telemetry"
	"hipster/internal/workload"
)

// DefaultSeed is the top-level seed of all randomized experiments.
const DefaultSeed int64 = 42

// RunOpts scale the experiment horizons; the zero value selects the
// paper's parameters. Tests shrink the horizons to stay fast.
type RunOpts struct {
	Seed int64
	// DiurnalSecs is the compressed-day horizon (default 1440 s).
	DiurnalSecs float64
	// LearnSecs is Hipster's initial learning phase (default 500 s).
	LearnSecs float64
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.DiurnalSecs == 0 {
		o.DiurnalSecs = 1440
	}
	if o.LearnSecs == 0 {
		o.LearnSecs = 500
	}
	return o
}

func (o RunOpts) diurnal() loadgen.Pattern {
	d := loadgen.DefaultDiurnal()
	d.PeriodSecs = o.DiurnalSecs
	return d
}

// SteadyPower evaluates the steady-state system power of a
// configuration serving the workload at the given load, with no batch
// jobs: allocated cores at the workload's power utilisation, unused
// clusters at the lowest DVFS (Algorithm 2 line 13), CPUidle enabled.
func SteadyPower(spec *platform.Spec, wl *workload.Model, cfg platform.Config, rps float64) float64 {
	cfg = cfg.Normalize(spec)
	capacity := wl.CapacityRPS(spec, cfg)
	rho := 0.0
	if capacity > 0 {
		rho = rps / capacity
	}
	if rho > 1 {
		rho = 1
	}
	util := rho
	if util < wl.UtilFloor {
		util = wl.UtilFloor
	}
	mk := func(n int) []float64 {
		u := make([]float64, n)
		for i := range u {
			u[i] = util
		}
		return u
	}
	load := platform.Load{
		BigFreq:      cfg.BigFreq,
		SmallFreq:    spec.Small.MaxFreq(),
		BigUtils:     mk(cfg.NBig),
		SmallUtils:   mk(cfg.NSmall),
		DeliveredIPS: rps * wl.DemandInstr,
	}
	return platform.SystemPower(spec, load).Total()
}

// PickMinPower returns, among the candidate configurations that meet
// the QoS target at the given load in the deterministic model, the one
// with the least steady-state power. When none meets QoS it returns the
// configuration with the lowest tail latency and met=false.
func PickMinPower(spec *platform.Spec, wl *workload.Model, candidates []platform.Config, rps float64) (best platform.Config, met bool) {
	bestPower := 0.0
	bestTail := 0.0
	haveMet, haveAny := false, false
	for _, cfg := range candidates {
		tail := wl.TailAt(spec, cfg, rps)
		meets := tail <= wl.TargetLatency
		switch {
		case meets:
			p := SteadyPower(spec, wl, cfg, rps)
			if !haveMet || p < bestPower {
				best, bestPower, haveMet = cfg, p, true
			}
		case !haveMet:
			if !haveAny || tail < bestTail {
				best, bestTail, haveAny = cfg, tail, true
			}
		}
	}
	return best, haveMet
}

// runPolicy executes one engine run and returns the trace.
func runPolicy(spec *platform.Spec, wl *workload.Model, pat loadgen.Pattern, pol policy.Policy, seed int64, horizon float64) (*telemetry.Trace, error) {
	eng, err := engine.New(engine.Options{
		Spec:     spec,
		Workload: wl,
		Pattern:  pat,
		Policy:   pol,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	return eng.Run(horizon)
}

// runPolicyDES is runPolicy with the discrete-event workload backend.
func runPolicyDES(spec *platform.Spec, wl *workload.Model, pat loadgen.Pattern, pol policy.Policy, seed int64, horizon float64) (*telemetry.Trace, error) {
	eng, err := engine.New(engine.Options{
		Spec:     spec,
		Workload: wl,
		Pattern:  pat,
		Policy:   pol,
		Seed:     seed,
		UseDES:   true,
	})
	if err != nil {
		return nil, err
	}
	return eng.Run(horizon)
}

// wsModel is a tiny helper for tests.
func wsModel() *workload.Model { return workload.WebSearch() }

// hipsterParams derives Hipster parameters from RunOpts, applying the
// per-workload danger-zone tuning the paper determines empirically
// (§3.3, §4.1): Memcached's sub-millisecond service times leave a wide
// guard band, Web-Search's optimal configurations sit closer to the
// target.
func hipsterParams(o RunOpts, wl *workload.Model) core.Params {
	p := core.DefaultParams()
	p.LearnSecs = o.LearnSecs
	if wl != nil && wl.Name == "memcached" {
		p.QoSD = 0.78
	}
	return p
}

// PolicyNames lists the standard policy set used by Table 3 and
// Figure 5, as accepted by policyByName.
func PolicyNames() []string {
	return []string{"static-big", "static-small", "octopus-man", "hipster-heuristic", "hipster-in", "hipster-co"}
}

// policyByName builds a fresh policy instance for the standard set used
// by Table 3 and Figure 5.
func policyByName(name string, spec *platform.Spec, wl *workload.Model, o RunOpts) (policy.Policy, error) {
	switch name {
	case "static-big":
		return policy.NewStaticBig(spec), nil
	case "static-small":
		return policy.NewStaticSmall(spec), nil
	case "octopus-man":
		return octopusman.New(spec, octopusman.DefaultParams())
	case "hipster-heuristic":
		return heuristic.New(spec, heuristic.DefaultParams())
	case "hipster-in":
		return core.New(core.In, spec, hipsterParams(o, wl), o.Seed)
	case "hipster-co":
		return core.New(core.Co, spec, hipsterParams(o, wl), o.Seed)
	}
	return nil, names.Unknown("experiments", "policy", name, PolicyNames())
}
