package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hipster/internal/cluster"
	"hipster/internal/clusterdes"
	"hipster/internal/telemetry"
)

// childEnv turns the binary into one repetition's child process; its
// value is the JSON childSpec. A fresh process per repetition makes
// setup_s include the first-use costs every CLI run pays, and keeps the
// memory numbers to one run.
const childEnv = "HIPSTER_BENCH_CHILD"

// drainSecs bounds how long a DES fleet runs on after the horizon, with
// no new load, for its request ledger to balance; drainStep is how often
// the ledger is checked meanwhile.
const drainSecs, drainStep = 60, 5

type childSpec struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	SetupOnly bool    `json:"setup_only,omitempty"`
	// Spans, when set, makes this the traced run and names its spans file.
	Spans string `json:"spans,omitempty"`
}

// repResult is one child's report.
type repResult struct {
	SetupS float64 `json:"setup_s"`
	// RefS and RefCPUS are the mean wall and CPU times of the reference
	// slices taken during the timed run; WallS and CPUS exclude them.
	RefS       float64   `json:"ref_s"`
	RefCPUS    float64   `json:"ref_cpu_s"`
	WallS      float64   `json:"wall_s"`
	CPUS       float64   `json:"cpu_s"`
	AllocMB    float64   `json:"alloc_mb"`
	RetainedMB float64   `json:"retained_mb"`
	IntervalMs []float64 `json:"interval_ms,omitempty"`
	// Requests is the simulated request count: DES primaries, or the
	// interval model's offered requests.
	Requests float64 `json:"requests"`
	// Sim holds the modelled outputs, Runtime the Go runtime's numbers
	// for the run, Layer the traced run's per-layer metrics.
	Sim      map[string]float64 `json:"sim,omitempty"`
	Runtime  map[string]float64 `json:"runtime,omitempty"`
	Layer    map[string]float64 `json:"layer,omitempty"`
	Hash     string             `json:"hash,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

func (r *repResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// childMain runs the repetition described by the environment and prints
// its report as JSON.
func childMain(raw string) {
	var spec childSpec
	var res repResult
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		res.problem("child spec: %v", err)
	} else {
		res = runRep(spec)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
}

func runRep(spec childSpec) repResult {
	var res repResult
	w, err := workloadByName(spec.Workload)
	if err != nil {
		res.problem("%v", err)
		return res
	}
	rec := newRecorder(spec.Spans != "", w.scaledHorizon(spec.Scale))
	if w.des != nil {
		runDES(w, spec, rec, &res)
	} else {
		runInterval(w, spec, rec, &res)
	}
	return res
}

func runDES(w workload, spec childSpec, rec *recorder, res *repResult) {
	t0 := time.Now()
	opts, err := w.des(spec.Seed, rec)
	if err != nil {
		res.problem("build: %v", err)
		return
	}
	fl, err := clusterdes.New(opts)
	if err != nil {
		res.problem("build: %v", err)
		return
	}
	res.SetupS = time.Since(t0).Seconds()
	if spec.SetupOnly {
		return
	}
	if rec.traced {
		rec.rounds = func() int { st, _ := fl.FederationStats(); return st.Rounds }
	}

	m, err := startMeter(rec)
	if err != nil {
		res.problem("%v", err)
		return
	}
	out, err := fl.Run(rec.horizon)
	m.stop(res, rec)
	if err != nil {
		res.problem("run: %v", err)
		return
	}
	res.RetainedMB = retainedMB()
	res.Requests = float64(out.Stats.Requests)
	res.IntervalMs = rec.intervalMs()
	sum := out.Summarize()
	res.Sim = map[string]float64{
		"sim_p99_ms":    out.Latency.P99 * 1e3,
		"sim_qos_pct":   sum.QoSAttainment * 100,
		"sim_energy_kj": sum.TotalEnergyJ / 1e3,
	}
	checkRecord(res, out.Fleet, out.Nodes, sum, out.Latency, out.Stats)
	if rec.traced {
		in := probeInputDES(opts, fl.CapacityRPS(), out)
		traceLayers(res, rec, spec, true, opts.Workers, in, desCounts(out, rec))
	}

	// The ledger is exact only once every admitted request has settled,
	// so the fleet drains past the horizon (the pattern offers no load
	// there), drainStep seconds at a time, until completed + dropped +
	// timed out + lost equals the requests admitted.
	var lat clusterdes.LatencySummary
	requests := 0
	for t := rec.horizon + drainStep; t <= rec.horizon+drainSecs; t += drainStep {
		drained, err := fl.Run(t)
		if err != nil {
			res.problem("drain: %v", err)
			return
		}
		lat, requests = drained.Latency, drained.Stats.Requests
		if lat.Completed+lat.Dropped+lat.TimedOut+lat.Lost == requests {
			return
		}
	}
	res.problem("ledger: %d completed + %d dropped + %d timed out + %d lost != %d requests after a %d-s drain",
		lat.Completed, lat.Dropped, lat.TimedOut, lat.Lost, requests, drainSecs)
}

func runInterval(w workload, spec childSpec, rec *recorder, res *repResult) {
	t0 := time.Now()
	opts, err := w.interval(spec.Seed, rec)
	if err != nil {
		res.problem("build: %v", err)
		return
	}
	cl, err := cluster.New(opts)
	if err != nil {
		res.problem("build: %v", err)
		return
	}
	res.SetupS = time.Since(t0).Seconds()
	if spec.SetupOnly {
		return
	}

	m, err := startMeter(rec)
	if err != nil {
		res.problem("%v", err)
		return
	}
	rounds := 0
	for k := 0; k < int(rec.horizon); k++ {
		rec.boundary(rec.now())
		if _, err := cl.Step(); err != nil {
			m.stop(res, rec)
			res.problem("step %d: %v", k, err)
			return
		}
		if rec.traced {
			st, _ := cl.FederationStats()
			rec.current().synced = st.Rounds != rounds
			rounds = st.Rounds
		}
	}
	rec.boundary(rec.now())
	cl.Close()
	m.stop(res, rec)

	nodes := make([]*telemetry.Trace, cl.NumNodes())
	for i := range nodes {
		nodes[i] = cl.NodeTrace(i)
	}
	res.RetainedMB = retainedMB()
	fleet := cl.Fleet()
	for _, s := range fleet.Samples {
		res.Requests += s.OfferedRPS // one-second intervals
	}
	res.IntervalMs = rec.intervalMs()
	sum := fleet.Summarize()
	res.Sim = map[string]float64{
		"sim_qos_pct":   sum.QoSAttainment * 100,
		"sim_energy_kj": sum.TotalEnergyJ / 1e3,
	}
	checkRecord(res, fleet, nodes, sum)
	if rec.traced {
		in := probeInputInterval(opts, cl.CapacityRPS(), fleet, nodes, res.Requests)
		traceLayers(res, rec, spec, false, opts.Workers, in, intervalCounts(cl, rec))
	}
	runtime.KeepAlive(cl)
}

// checkRecord hashes the run's full record — what fleettest's
// fingerprints encode: fleet samples, every node trace, then (DES) the
// latency summary and stats — and flags NaN or Inf anywhere in it or in
// the fleet summary. Each part is digested on its own, in parallel, and
// the record hash covers the digests in that order.
func checkRecord(res *repResult, fleet *telemetry.FleetTrace, nodes []*telemetry.Trace, sum telemetry.FleetSummary, extra ...any) {
	parts := []any{fleet.Samples}
	for _, tr := range nodes {
		parts = append(parts, tr.Samples)
	}
	parts = append(parts, extra...)
	digests := make([][]byte, len(parts))
	errs := make([]error, len(parts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(parts); i = int(next.Add(1)) - 1 {
				digests[i], errs[i] = digest(parts[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		res.problem("record: %v", err)
	}
	if _, err := digest(sum); err != nil {
		res.problem("fleet summary: %v", err)
	}
	h := sha256.New()
	for _, d := range digests {
		h.Write(d)
	}
	res.Hash = hex.EncodeToString(h.Sum(nil))
}

// digest returns the SHA-256 of v's every field, in declaration order,
// in a fixed binary form: eight little-endian bytes per number, a byte
// per bool, and a length before each string and slice. JSON would do,
// but takes seconds on the larger records. It refuses NaN and Inf.
func digest(v any) ([]byte, error) {
	e := encoder{h: sha256.New()}
	e.value(reflect.ValueOf(v))
	e.h.Write(e.buf)
	return e.h.Sum(nil), e.err
}

type encoder struct {
	h   hash.Hash
	buf []byte
	err error
}

func (e *encoder) word(x uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, x) }

func (e *encoder) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			e.err = fmt.Errorf("%v in a %s", f, v.Type())
		}
		e.word(math.Float64bits(f))
	case reflect.Int, reflect.Int64:
		e.word(uint64(v.Int()))
	case reflect.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		e.buf = append(e.buf, b)
	case reflect.String:
		e.word(uint64(v.Len()))
		e.buf = append(e.buf, v.String()...)
	case reflect.Slice:
		e.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			e.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			e.value(v.Field(i))
		}
	default:
		e.err = fmt.Errorf("cannot encode a %s", v.Type())
	}
	if len(e.buf) >= 1<<16 {
		e.h.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

// meter measures one timed run: host time, process CPU time, bytes
// allocated and GC activity, and the reference slices taken meanwhile.
type meter struct {
	start      time.Time
	cpu        time.Duration
	alloc      uint64
	numGC      uint32
	gcCPU, all float64
	ref        *refSlicer
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPUMetrics() (gc, all float64) {
	s := []metrics.Sample{{Name: cpuMetrics[0]}, {Name: cpuMetrics[1]}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startMeter collects garbage left by setup, hands the recorder a
// reference slicer, then starts measuring.
func startMeter(rec *recorder) (*meter, error) {
	ref, err := newRefSlicer()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &meter{alloc: ms.TotalAlloc, numGC: ms.NumGC, cpu: processCPU(), ref: ref}
	m.gcCPU, m.all = readCPUMetrics()
	rec.ref = ref
	m.start = time.Now()
	return m, nil
}

// stop ends the measurement and takes the recorder's slicer back; the
// slices' time is not the run's.
func (m *meter) stop(res *repResult, rec *recorder) {
	elapsed := time.Since(m.start)
	rec.ref = nil
	res.WallS = (elapsed - m.ref.wallUsed).Seconds()
	res.CPUS = (processCPU() - m.cpu - m.ref.cpuUsed).Seconds()
	res.RefS, res.RefCPUS = m.ref.meanWall(), m.ref.meanCPU()
	if err := m.ref.close(); err != nil {
		res.problem("%v", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, all := readCPUMetrics()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a failure leaves max RSS at zero
	res.AllocMB = float64(ms.TotalAlloc-m.alloc) / (1 << 20)
	res.Runtime = map[string]float64{
		"runtime.gc_cycles":   float64(ms.NumGC - m.numGC),
		"runtime.gc_cpu_frac": (gc - m.gcCPU) / max(all-m.all, 1e-9),
		"runtime.max_rss_mb":  float64(ru.Maxrss) / 1024,
	}
}

// retainedMB is the live heap after a full collection; the caller still
// holds the run's result.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
