package experiments

import (
	"hipster/internal/platform"
	"hipster/internal/telemetry"
	"hipster/internal/workload"
)

// Table3Row is one policy's summary for one workload, as in Table 3.
type Table3Row struct {
	Policy          string
	Workload        string
	QoSGuaranteePct float64
	QoSTardiness    float64 // mean over violating samples
	EnergyReductPct float64 // vs static all-big
	MigrationEvents int
	TotalEnergyJ    float64
}

// Table3Policies is the row order of Table 3.
var Table3Policies = []string{
	"static-big", "static-small", "hipster-heuristic", "octopus-man", "hipster-in",
}

// Table3Result holds all rows plus the raw traces for inspection.
type Table3Result struct {
	Rows   []Table3Row
	Traces map[string]*telemetry.Trace // key: policy + "/" + workload
}

// Table3 reproduces Table 3: QoS guarantee, QoS tardiness and energy
// reduction of each policy on Memcached and Web-Search over the diurnal
// load, with energy normalised to the static all-big mapping. Every
// policy runs for two compressed days and is scored on the second, so
// Hipster's figures reflect the exploitation phase (its learning-phase
// behaviour is quantified separately by Figures 6/7/9).
func Table3(spec *platform.Spec, o RunOpts) (Table3Result, error) {
	o = o.withDefaults()
	res := Table3Result{Traces: make(map[string]*telemetry.Trace)}

	for _, wl := range []*workload.Model{workload.Memcached(), workload.WebSearch()} {
		baseEnergy := 0.0
		for _, name := range Table3Policies {
			pol, err := policyByName(name, spec, wl, o)
			if err != nil {
				return Table3Result{}, err
			}
			full, err := runPolicy(spec, wl, o.diurnal(), pol, o.Seed, 2*o.DiurnalSecs)
			if err != nil {
				return Table3Result{}, err
			}
			trace := rebase(full.Slice(o.DiurnalSecs, 2*o.DiurnalSecs+1))
			res.Traces[name+"/"+wl.Name] = trace
			sum := trace.Summarize()
			if name == "static-big" {
				baseEnergy = sum.TotalEnergyJ
			}
			row := Table3Row{
				Policy:          name,
				Workload:        wl.Name,
				QoSGuaranteePct: sum.QoSGuarantee * 100,
				QoSTardiness:    sum.MeanTardiness,
				MigrationEvents: sum.MigrationEvents,
				TotalEnergyJ:    sum.TotalEnergyJ,
			}
			if baseEnergy > 0 {
				row.EnergyReductPct = (1 - sum.TotalEnergyJ/baseEnergy) * 100
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// rebase shifts a sliced trace so that time and cumulative energy
// restart at zero, making window summaries comparable across runs.
func rebase(tr *telemetry.Trace) *telemetry.Trace {
	if tr.Len() == 0 {
		return tr
	}
	t0 := tr.Samples[0].T - 1 // sample T marks the interval end
	e0 := tr.Samples[0].EnergyJ - tr.Samples[0].PowerW()*1
	out := &telemetry.Trace{Samples: make([]telemetry.Sample, tr.Len())}
	copy(out.Samples, tr.Samples)
	for i := range out.Samples {
		out.Samples[i].T -= t0
		out.Samples[i].EnergyJ -= e0
	}
	return out
}

// Table3Paper records the paper's Table 3 (QoS guarantee %, tardiness,
// energy reduction %), which cmd/paperfigs prints beside our values.
var Table3Paper = map[string]map[string][3]float64{
	"memcached": {
		"static-big":        {99.5, 1.1, 0},
		"static-small":      {85.8, 1.4, 48.0},
		"hipster-heuristic": {89.9, 1.8, 18.7},
		"octopus-man":       {92.0, 2.2, 17.2},
		"hipster-in":        {99.4, 1.4, 14.3},
	},
	"websearch": {
		"static-big":        {99.5, 1.3, 0},
		"static-small":      {78.4, 2.0, 31.0},
		"hipster-heuristic": {95.3, 1.9, 13.6},
		"octopus-man":       {80.0, 2.1, 4.3},
		"hipster-in":        {96.5, 2.0, 17.8},
	},
}
