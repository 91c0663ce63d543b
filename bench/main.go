// Command bench is the simulator's end-to-end benchmark. It runs five
// fixed-size fleet workloads, each repetition in a fresh child process
// of this binary, checks every run's model output, and prints each
// end-to-end metric by name and unit; -trace 1 adds one traced run that
// reports the per-layer metrics instead. The last line of standard
// output is a JSON object {correct, attempted, failed, metrics}.
//
//	go run -C bench . -seed 42                     # all workloads
//	bash bench/run.sh --workload ws-day --seed 42 --seconds 18 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"hipster/internal/stats"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, with the share
// of the parent's median by which each may worsen. Host times are in
// units of the reference slices timed during each repetition (see
// refSlicer), and setup_s is scaled by them (refNominal); the raw
// seconds are per-layer metrics.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ref", "ref", "lower", 0.25},
	{"cpu_ref", "ref", "lower", 0.25},
	{"req_per_ref", "req/ref", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.03},
	{"retained_mb", "MB", "lower", 0.02},
	{"sim_qos_pct", "%", "higher", 0.25},
	{"sim_energy_kj", "kJ", "lower", 0.1},
}

// perLayer are the traced run's metrics, grouped by layer (README.md
// maps each to the end-to-end metric it should move).
var perLayer = []metricSpec{
	// Host time as measured, and the mean reference slice's.
	{"wall_s", "s", "lower", 0},
	{"cpu_s", "s", "lower", 0},
	{"req_per_s", "req/s", "higher", 0},
	{"interval_p50_ms", "ms", "lower", 0},
	{"interval_tail_ms", "ms", "lower", 0},
	{"ref_s", "s", "lower", 0},
	// Coordinator (clusterdes, or cluster in interval mode).
	{"interval_self_ms", "ms", "lower", 0},
	{"ns_per_req", "ns", "lower", 0},
	{"clusterdes.loop_pct", "%", "lower", 0},
	{"clusterdes.learnstep_pct", "%", "lower", 0},
	{"clusterdes.boundary_mid_pct", "%", "lower", 0},
	{"clusterdes.boundary_tail_pct", "%", "lower", 0},
	{"hedges", "count", "lower", 0},
	{"hedge_win_ratio", "ratio", "higher", 0},
	{"steals", "count", "lower", 0},
	{"cross_domain_exchanges", "count", "lower", 0},
	{"migrated", "count", "lower", 0},
	// cluster
	{"cluster.split_us", "us", "lower", 0},
	{"cluster.pool_cpu_util", "ratio", "higher", 0},
	// core, behind policy.Policy
	{"core.decide_ns_p50", "ns", "lower", 0},
	{"core.decide_ns_tail", "ns", "lower", 0},
	{"core.decides", "count", "lower", 0},
	{"core.decide_share", "%", "lower", 0},
	// federation
	{"federation.sync_rounds", "count", "lower", 0},
	{"federation.sync_extra_pct", "%", "lower", 0},
	{"warm_starts", "count", "lower", 0},
	{"flushes", "count", "lower", 0},
	// autoscale
	{"autoscale.desired_us", "us", "lower", 0},
	{"ups", "count", "lower", 0},
	{"downs", "count", "lower", 0},
	{"warmup_intervals", "count", "lower", 0},
	// resilience
	{"retries", "count", "lower", 0},
	{"timeouts", "count", "lower", 0},
	{"breaker_opens", "count", "lower", 0},
	{"hedge_cancels", "count", "lower", 0},
	{"resilience.attempt_yield", "ratio", "higher", 0},
	// faults
	{"crashes", "count", "lower", 0},
	{"revocations", "count", "lower", 0},
	{"partitions", "count", "lower", 0},
	{"lost", "count", "lower", 0},
	{"pred_flags", "count", "lower", 0},
	{"pred_migrations", "count", "lower", 0},
	// primitives
	{"queueing.heap_push_pop_ns", "ns", "lower", 0},
	{"queueing.ring_push_pop_ns", "ns", "lower", 0},
	{"stats.sort_ns_per_elem", "ns", "lower", 0},
	{"sim.subrng_ns", "ns", "lower", 0},
	// Go runtime
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.alloc_bytes_per_req", "B", "lower", 0},
	{"runtime.max_rss_mb", "MB", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

// setupProbes is how many extra setup-only children an untraced run
// launches, so setup_s is a median over enough cold starts.
const setupProbes = 25

// refNominal is a reference slice's time, in seconds, on a nominal host
// close to the one the bounds were measured on (README.md). setup_s is
// scaled to that host — the raw set-up time times refNominal over the
// run's median slice time — so that host drift between sets of runs
// cancels out of it.
const refNominal = 1e-3

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

//go:embed testdata/fingerprints.json
var pinsJSON []byte

// pinFile is testdata/fingerprints.json: model hashes at scale 1 for
// the pinned seeds, valid on the architecture that produced them.
type pinFile struct {
	GOARCH string                       `json:"goarch"`
	Pins   map[string]map[string]string `json:"pins"`
}

var pins = func() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic(fmt.Sprintf("bench: testdata/fingerprints.json: %v", err))
	}
	return p
}()

// pinnedSeeds are the seeds -update records.
var pinnedSeeds = []int64{42, 1042}

func pinFor(name string, seed int64, scale float64) (string, bool) {
	if scale != 1 || runtime.GOARCH != pins.GOARCH {
		return "", false
	}
	h, ok := pins.Pins[name][strconv.FormatInt(seed, 10)]
	return h, ok
}

type config struct {
	seed    int64
	seconds float64
	reps    int
	probes  int     // setup-only children before the repetitions
	scale   float64 // of every workload's simulated horizon
	trace   bool
	spans   string // directory for spans files
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's result; its JSON form is the output line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	problems []string
	all      map[string]float64 // every metric measured, for the table
	notes    map[string]string  // shown beside a metric in the table
	hash     string
}

func main() {
	if raw, ok := os.LookupEnv(childEnv); ok {
		childMain(raw)
		return
	}
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 42, "seed the workload inputs are generated from")
	seconds := flag.Float64("seconds", 0, "keep adding repetitions while they fit in this many seconds")
	trace := flag.Int("trace", 0, "1: add one traced run and report the per-layer metrics instead")
	reps := flag.Int("reps", 3, "minimum timed repetitions")
	update := flag.String("update", "", "record the model hashes of the pinned seeds in this file and exit")
	flag.Parse()

	if *update != "" {
		if err := updatePins(*update); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "bench: -reps must be at least 1")
		os.Exit(2)
	}
	sel := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		sel = []workload{w}
	}
	cfg := config{seed: *seed, seconds: *seconds, reps: *reps, probes: setupProbes, scale: 1, trace: *trace == 1, spans: ".bench_build"}
	if cfg.trace {
		if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	for _, w := range sel {
		rep, err := measure(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printReport(w, cfg, rep)
	}
}

// measure runs one workload: setup probes, then timed repetitions until
// -seconds, counted from the first probe, is spent (at least -reps),
// then the traced run if asked. It fails only when no repetition
// produced a result.
func measure(w workload, cfg config) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	rep := report{notes: map[string]string{}}
	base := childSpec{Workload: w.name, Seed: cfg.seed, Scale: cfg.scale}
	pin, pinned := pinFor(w.name, cfg.seed, cfg.scale)
	// launch runs one child and counts it failed when it reports a
	// problem or its model output differs from the pinned hash or from
	// the first run's. It reports whether the run finished, so that its
	// measurements can be used.
	launch := func(spec childSpec) (repResult, bool) {
		rep.Attempted++
		r, err := spawn(exe, spec)
		if err != nil {
			r.problem("%v", err)
		}
		if r.Hash != "" {
			if pinned && r.Hash != pin {
				r.problem("model hash %.12s differs from the pinned %.12s", r.Hash, pin)
			}
			if rep.hash == "" {
				rep.hash = r.Hash
			} else if r.Hash != rep.hash {
				r.problem("model hash %.12s differs from the first run's %.12s", r.Hash, rep.hash)
			}
		}
		if len(r.Problems) > 0 {
			rep.Failed++
			rep.problems = append(rep.problems, r.Problems...)
		}
		return r, err == nil && (spec.SetupOnly || r.Hash != "")
	}

	start := time.Now()
	var setups []float64
	if !cfg.trace {
		for i := 0; i < cfg.probes; i++ {
			spec := base
			spec.SetupOnly = true
			if r, ok := launch(spec); ok {
				setups = append(setups, r.SetupS)
			}
		}
	}
	var runs []repResult
	var last time.Duration
	for n := 0; n < cfg.reps || time.Since(start)+last <= time.Duration(cfg.seconds*float64(time.Second)); n++ {
		t0 := time.Now()
		r, ok := launch(base)
		last = time.Since(t0)
		if ok {
			runs = append(runs, r)
			setups = append(setups, r.SetupS)
		}
	}
	if len(runs) == 0 {
		return rep, fmt.Errorf("no repetition finished: %v", rep.problems)
	}

	var traced repResult
	if cfg.trace {
		spec := base
		spec.Spans = filepath.Join(cfg.spans, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		r, ok := launch(spec)
		if !ok || r.Layer == nil {
			return rep, fmt.Errorf("traced run failed: %v", rep.problems)
		}
		traced = r
		rep.notes["trace_overhead_pct"] = "spans: " + spec.Spans
	}

	col := func(f func(repResult) float64) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = f(r)
		}
		return out
	}
	wall := median(col(func(r repResult) float64 { return r.WallS }))
	cpu := median(col(func(r repResult) float64 { return r.CPUS }))
	var pooled []float64
	for _, r := range runs {
		pooled = append(pooled, r.IntervalMs...)
	}
	sort.Float64s(pooled)
	// The tail percentile is fixed per workload (from the minimum pooled
	// count), so runs with more repetitions report the same percentile.
	q := tailQuantile(cfg.reps * len(runs[0].IntervalMs))
	rep.notes["interval_tail_ms"] = fmt.Sprintf("p%g of %d pooled intervals", q*100, len(pooled))
	ref := median(col(func(r repResult) float64 { return r.RefS }))
	rep.notes["setup_s"] = fmt.Sprintf("raw %.4g s", median(setups))
	vals := map[string]float64{
		"setup_s":          median(setups) * refNominal / ref,
		"wall_ref":         median(col(func(r repResult) float64 { return r.WallS / r.RefS })),
		"cpu_ref":          median(col(func(r repResult) float64 { return r.CPUS / r.RefCPUS })),
		"req_per_ref":      median(col(func(r repResult) float64 { return r.Requests / r.WallS * r.RefS })),
		"alloc_mb":         median(col(func(r repResult) float64 { return r.AllocMB })),
		"retained_mb":      median(col(func(r repResult) float64 { return r.RetainedMB })),
		"wall_s":           wall,
		"cpu_s":            cpu,
		"req_per_s":        median(col(func(r repResult) float64 { return r.Requests / r.WallS })),
		"interval_p50_ms":  percentile(pooled, 0.5),
		"interval_tail_ms": percentile(pooled, q),
		"ref_s":            ref,
		"fail_frac":        float64(rep.Failed) / float64(rep.Attempted),
	}
	for k, v := range runs[0].Sim {
		vals[k] = v
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
		for k, v := range traced.Layer {
			vals[k] = v
		}
		for _, k := range []string{"runtime.gc_cpu_frac", "runtime.gc_cycles", "runtime.max_rss_mb"} {
			vals[k] = median(col(func(r repResult) float64 { return r.Runtime[k] }))
		}
		vals["runtime.alloc_bytes_per_req"] = median(col(func(r repResult) float64 { return r.AllocMB * (1 << 20) / r.Requests }))
		vals["cluster.pool_cpu_util"] = cpu / wall
		vals["trace_overhead_pct"] = 100 * (traced.WallS/traced.RefS/vals["wall_ref"] - 1)
	}
	rep.all = vals
	rep.Metrics = map[string]value{}
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok {
			return rep, fmt.Errorf("metric %s was not measured", m.Name)
		}
		rep.Metrics[m.Name] = value{v, m.Unit}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// spawn runs one child repetition and waits for it to exit.
func spawn(exe string, spec childSpec) (repResult, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("child %s: %w", raw, err)
	}
	var r repResult
	if err := json.Unmarshal(out, &r); err != nil {
		return repResult{}, fmt.Errorf("child %s output: %w", raw, err)
	}
	return r, nil
}

// rawHostTimes are the host times as measured: per-layer metrics that
// the end-to-end table also shows beside the gated ones.
var rawHostTimes = perLayer[:6:6]

// tableExtras are printed under every table but are not in the JSON:
// the modelled P99, a time that repeats exactly for a seed and whose
// spread across seeds is too wide to gate, and the share of runs that
// failed, which the JSON gives as failed out of attempted.
var tableExtras = []metricSpec{{"sim_p99_ms", "ms", "lower", 0}, {"fail_frac", "ratio", "lower", 0}}

func printReport(w workload, cfg config, rep report) {
	mode := "end-to-end"
	specs := endToEnd
	if cfg.trace {
		mode, specs = "per-layer", perLayer
	}
	fmt.Printf("%s  seed=%d  scale=%g  %s metrics  (%d runs, %d failed)\n", w.name, cfg.seed, cfg.scale, mode, rep.Attempted, rep.Failed)
	row := func(m metricSpec) {
		if _, ok := rep.all[m.Name]; !ok {
			return // sim_p99_ms in interval mode
		}
		fmt.Printf("  %-30s %16.6g %-7s %s\n", m.Name, rep.all[m.Name], m.Unit, rep.notes[m.Name])
	}
	for _, m := range specs {
		row(m)
	}
	extras := tableExtras
	if !cfg.trace {
		extras = append(rawHostTimes, extras...)
	}
	fmt.Println("  also:")
	for _, m := range extras {
		row(m)
	}
	for _, p := range rep.problems {
		fmt.Println("  FAILED:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// updatePins records the model hash of every workload at each pinned
// seed, at scale 1, into path.
func updatePins(path string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	p := pinFile{GOARCH: runtime.GOARCH, Pins: map[string]map[string]string{}}
	for _, w := range workloads {
		p.Pins[w.name] = map[string]string{}
		for _, seed := range pinnedSeeds {
			r, err := spawn(exe, childSpec{Workload: w.name, Seed: seed, Scale: 1})
			if err == nil && len(r.Problems) > 0 {
				err = fmt.Errorf("%v", r.Problems)
			}
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			p.Pins[w.name][strconv.FormatInt(seed, 10)] = r.Hash
			fmt.Printf("%s seed=%d %s\n", w.name, seed, r.Hash)
		}
	}
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// median returns the middle of x (the mean of the two middle values for
// an even count); x is not modified.
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// percentile reads quantile q of sorted x with linear interpolation.
func percentile(sorted []float64, q float64) float64 {
	v, err := stats.PercentileSorted(sorted, q)
	if err != nil {
		return 0
	}
	return v
}

// tailQuantile is the highest of p99, p95, p90, p75 and p50 that leaves
// at least ten of n samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if (1-q)*float64(n) >= 10 {
			return q
		}
	}
	return 0.5
}
