package experiments

import (
	"math"

	"hipster/internal/core"
	"hipster/internal/octopusman"
	"hipster/internal/platform"
	"hipster/internal/policy"
	"hipster/internal/queueing"
	"hipster/internal/workload"
)

// OMSweepRow is one threshold combination of the Octopus-Man deployment
// sweep (§4.1: "we first performed a sweep on the danger and safe
// thresholds, and picked the combination with the highest QoS
// guarantee").
type OMSweepRow struct {
	QoSD            float64
	QoSS            float64
	QoSGuaranteePct float64
	EnergyReductPct float64
}

// OMThresholdSweep runs Octopus-Man across a danger/safe threshold grid
// on the given workload and returns all rows plus the index of the best
// (highest QoS guarantee, energy as tiebreak).
func OMThresholdSweep(spec *platform.Spec, wl *workload.Model, o RunOpts) ([]OMSweepRow, int, error) {
	o = o.withDefaults()
	base, err := runPolicy(spec, wl, o.diurnal(), policy.NewStaticBig(spec), o.Seed, o.DiurnalSecs)
	if err != nil {
		return nil, 0, err
	}
	baseEnergy := base.TotalEnergyJ()

	dangers := []float64{0.70, 0.80, 0.85, 0.90, 0.95}
	safes := []float64{0.40, 0.50, 0.55, 0.60, 0.70}
	var rows []OMSweepRow
	best := 0
	for _, d := range dangers {
		for _, s := range safes {
			if s >= d {
				continue
			}
			om, err := octopusman.New(spec, octopusman.Params{
				QoSD: d, QoSS: s, StartAtTop: true,
				Cooldown: octopusman.DefaultParams().Cooldown,
			})
			if err != nil {
				return nil, 0, err
			}
			trace, err := runPolicy(spec, wl, o.diurnal(), om, o.Seed, o.DiurnalSecs)
			if err != nil {
				return nil, 0, err
			}
			sum := trace.Summarize()
			row := OMSweepRow{
				QoSD:            d,
				QoSS:            s,
				QoSGuaranteePct: sum.QoSGuarantee * 100,
			}
			if baseEnergy > 0 {
				row.EnergyReductPct = (1 - sum.TotalEnergyJ/baseEnergy) * 100
			}
			rows = append(rows, row)
			if row.QoSGuaranteePct > rows[best].QoSGuaranteePct ||
				(row.QoSGuaranteePct == rows[best].QoSGuaranteePct &&
					row.EnergyReductPct > rows[best].EnergyReductPct) {
				best = len(rows) - 1
			}
		}
	}
	return rows, best, nil
}

// RewardAblationRow is one Hipster parameter variant.
type RewardAblationRow struct {
	Label           string
	QoSGuaranteePct float64
	EnergyReductPct float64
	MigrationEvents int
}

// RewardAblation quantifies four design choices of the learner: the
// discount factor, the learning rate, the stochastic penalty term, and
// the learning-phase duration, on Memcached under the diurnal load.
func RewardAblation(spec *platform.Spec, o RunOpts) ([]RewardAblationRow, error) {
	o = o.withDefaults()
	wl := workload.Memcached()

	base, err := runPolicy(spec, wl, o.diurnal(), policy.NewStaticBig(spec), o.Seed, o.DiurnalSecs)
	if err != nil {
		return nil, err
	}
	baseEnergy := base.TotalEnergyJ()

	variants := []struct {
		label string
		mod   func(*core.Params)
	}{
		{"paper-defaults", func(*core.Params) {}},
		{"gamma=0 (myopic)", func(p *core.Params) { p.Gamma = 0 }},
		{"alpha=0.2 (slow)", func(p *core.Params) { p.Alpha = 0.2 }},
		{"alpha=0.95 (fast)", func(p *core.Params) { p.Alpha = 0.95 }},
		{"no-stochastic-term", func(p *core.Params) { p.NoStochastic = true }},
		{"learn=0.2x", func(p *core.Params) { p.LearnSecs = o.LearnSecs * 0.2 }},
		{"learn=2x", func(p *core.Params) { p.LearnSecs = o.LearnSecs * 2 }},
	}

	var rows []RewardAblationRow
	for _, v := range variants {
		params := hipsterParams(o, wl)
		v.mod(&params)
		pol, err := core.New(core.In, spec, params, o.Seed)
		if err != nil {
			return nil, err
		}
		trace, err := runPolicy(spec, wl, o.diurnal(), pol, o.Seed, o.DiurnalSecs)
		if err != nil {
			return nil, err
		}
		sum := trace.Summarize()
		row := RewardAblationRow{
			Label:           v.label,
			QoSGuaranteePct: sum.QoSGuarantee * 100,
			MigrationEvents: sum.MigrationEvents,
		}
		if baseEnergy > 0 {
			row.EnergyReductPct = (1 - sum.TotalEnergyJ/baseEnergy) * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// QueueValidationRow compares the analytic tail-latency model against
// the discrete-event simulator at one operating point.
type QueueValidationRow struct {
	Servers     int
	Rho         float64
	Pct         float64
	AnalyticSec float64
	DESSec      float64
	RelErr      float64
}

// QueueingValidation sweeps pool shapes and utilisations, reporting the
// relative error of the analytic model against the DES.
func QueueingValidation(seed int64) ([]QueueValidationRow, float64, error) {
	pools := [][]queueing.Server{
		{{Rate: 100}, {Rate: 100}},
		{{Rate: 300}, {Rate: 100}, {Rate: 100}, {Rate: 100}},
		{{Rate: 500}, {Rate: 500}, {Rate: 160}, {Rate: 160}},
	}
	rhos := []float64{0.3, 0.6, 0.8, 0.9}
	pct := 0.95
	cv := 1.0

	var rows []QueueValidationRow
	var maxErr float64
	var sim queueing.Simulator // one scratch arena across the whole sweep
	for pi, pool := range pools {
		mu := queueing.TotalRate(pool)
		for _, rho := range rhos {
			lambda := rho * mu
			an, err := queueing.Analyze(pool, lambda, pct, cv)
			if err != nil {
				return nil, 0, err
			}
			des, err := sim.Run(queueing.DESConfig{
				Servers:  pool,
				Lambda:   lambda,
				CV:       cv,
				Duration: 400,
				Warmup:   50,
				Seed:     seed + int64(pi*10) + int64(rho*100),
			})
			if err != nil {
				return nil, 0, err
			}
			d95, err := des.Percentile(pct)
			if err != nil {
				return nil, 0, err
			}
			rel := math.Abs(an.TailLatency-d95) / d95
			if rel > maxErr {
				maxErr = rel
			}
			rows = append(rows, QueueValidationRow{
				Servers:     len(pool),
				Rho:         rho,
				Pct:         pct,
				AnalyticSec: an.TailLatency,
				DESSec:      d95,
				RelErr:      rel,
			})
		}
	}
	return rows, maxErr, nil
}
