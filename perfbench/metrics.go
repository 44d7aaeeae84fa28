package main

import (
	"encoding/json"
	"strings"

	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/sched"
)

// runSeconds is how long one invocation measures by default and in
// BENCHMARK.json.
const runSeconds = 25

// metricSpec is one metric of BENCHMARK.json.  Bound, set only on the
// end-to-end metrics, is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, from untraced
// runs (endToEndValues says how replicates are summarised); the sim_*
// metrics describe the modelled design and repeat exactly for a
// seed, so they move only when a change alters simulated behaviour.
// Bounds are set against the spread of each metric over seeds and over
// a shared host's speed.
// The mean simulated startup is a per-layer metric (model.startup_mean_s)
// because it is dominated by rare long waits and spreads by 15–25%
// across seeds on paper and fleet.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.2},
	{"alloc_mb", "MB", "lower", 0.15},
	{"sim_displays_per_hour", "displays/h", "higher", 0.1},
	{"sim_disk_busy", "ratio", "higher", 0.15},
}

// perLayer are the traced run's metrics, one group per module.  A
// metric of a layer the workload does not run reads 0.
var perLayer = []metricSpec{
	{"sched.step_us.p50", "us", "lower", 0},
	{"sched.step_us.p99", "us", "lower", 0},
	{"sched.step_us.n", "count", "higher", 0},
	{"sched.phase.admit_share", "ratio", "lower", 0},
	{"sched.phase.finishDue_share", "ratio", "lower", 0},
	{"sched.phase.tertiary_share", "ratio", "lower", 0},
	{"sched.phase.coalesce_share", "ratio", "lower", 0},
	{"sched.phase.cache_share", "ratio", "lower", 0},
	{"sched.phase.other_share", "ratio", "lower", 0},
	{"sched.queue_depth.mean", "count", "lower", 0},
	{"sched.queue_depth.max", "count", "lower", 0},
	{"sched.active_displays.mean", "count", "higher", 0},
	{"sched.admissions", "count", "higher", 0},
	{"sched.admit_yield", "ratio", "higher", 0},
	{"sched.admit_wait_s.p50", "s", "lower", 0},
	{"sched.admit_wait_s.p99", "s", "lower", 0},
	{"sched.admit_wait_s.n", "count", "higher", 0},
	{"sched.littles_ratio", "ratio", "lower", 0},
	{"sched.step_share", "ratio", "lower", 0},
	{"sched.setup_share", "ratio", "lower", 0},
	{"core.setup_share", "ratio", "lower", 0},
	{"core.step_share", "ratio", "lower", 0},
	{"core.evictions", "count", "lower", 0},
	{"core.resident_objects", "count", "higher", 0},
	{"sim.step_share", "ratio", "lower", 0},
	{"tertiary.materializations", "count", "lower", 0},
	{"tertiary.busy", "ratio", "lower", 0},
	{"tertiary.step_share", "ratio", "lower", 0},
	{"policy.replications", "count", "lower", 0},
	{"policy.step_share", "ratio", "lower", 0},
	{"rng.step_share", "ratio", "lower", 0},
	{"workload.step_share", "ratio", "lower", 0},
	{"workload.requests", "count", "higher", 0},
	{"cache.hit_rate", "ratio", "higher", 0},
	{"cache.served", "count", "higher", 0},
	{"cache.followers", "count", "higher", 0},
	{"cache.step_share", "ratio", "lower", 0},
	{"cluster.step_share", "ratio", "lower", 0},
	{"cluster.no_holder", "count", "lower", 0},
	{"cluster.failed_over", "count", "lower", 0},
	{"cluster.orphaned", "count", "lower", 0},
	{"cluster.orphaned_displays", "count", "lower", 0},
	{"cluster.readmitted", "count", "higher", 0},
	{"cluster.healed", "count", "higher", 0},
	{"runtime.step_share", "ratio", "lower", 0},
	{"runtime.setup_share", "ratio", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"host.setup_s", "s", "lower", 0},
	{"host.run_s", "s", "lower", 0},
	{"host.displays_per_s", "1/s", "higher", 0},
	{"host.calibration_ms", "ms", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
	{"trace.step_share", "ratio", "lower", 0},
	{"trace.step_samples", "count", "higher", 0},
	{"trace.setup_samples", "count", "higher", 0},
	{"model.table4_err_pct", "pp", "lower", 0},
	{"model.startup_mean_s", "s", "lower", 0},
}

// describeJSON renders BENCHMARK.json from the workloads and metric
// lists above, so the file and the code cannot drift apart unnoticed
// (TestBenchmarkJSONMatchesCode).
func describeJSON() ([]byte, error) {
	type workloadDoc struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDoc struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDoc `json:"workloads"`
		EndToEnd   []metricSpec  `json:"end_to_end"`
		PerLayer   []layerDoc    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadDoc{w.name, w.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDoc{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// calRefSeconds is the time of the calibration pair (calibrate before
// and after a replicate) on an uncontended core of the 2-CPU Xeon VM the
// benchmark was tuned on, where it measured 19–22 ms.
const calRefSeconds = 0.020

// endToEndValues summarises untraced replicates: medians over the
// replicates, and the simulated metrics of the first replicate (every
// replicate of a run simulates the same inputs).
//
// Host times are reported in reference seconds: each replicate's
// set-up and stepping times are scaled by calRefSeconds over the time
// of the calibration kernel run around that replicate.  On a shared
// host the same replicate runs up to 1.7 times slower while neighbours
// load the machine, in phases that can outlast a whole run, so raw
// times move with the neighbours; the fixed kernel slows with them and
// the scaled times do not.  The raw medians are host.setup_s,
// host.run_s and host.displays_per_s.
func endToEndValues(reps []*replicate) map[string]float64 {
	var setup, run, heap, alloc []float64
	for _, r := range reps {
		scale := calRefSeconds / r.cal.Seconds()
		setup = append(setup, r.setup.Seconds()*scale)
		run = append(run, r.run.Seconds()*scale)
		heap = append(heap, float64(r.heapBytes)/1e6)
		alloc = append(alloc, float64(r.allocBytes)/1e6)
	}
	sim, n := reps[0].sim, float64(reps[0].simRuns)
	return map[string]float64{
		"setup_s":               median(setup),
		"run_s":                 median(run),
		"heap_mb":               median(heap),
		"alloc_mb":              median(alloc),
		"sim_displays_per_hour": sim.Throughput() / n,
		"sim_disk_busy":         sim.DiskBusy,
	}
}

// hostValues are the raw host times of untraced replicates: medians of
// the set-up and stepping times, of simulated displays per second of
// stepping, and of the calibration pair's time.
func hostValues(reps []*replicate) map[string]float64 {
	var setup, run, rate, cal []float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		run = append(run, r.run.Seconds())
		rate = append(rate, float64(r.sim.Displays)/r.run.Seconds())
		cal = append(cal, r.cal.Seconds()*1e3)
	}
	return map[string]float64{
		"host.setup_s":        median(setup),
		"host.run_s":          median(run),
		"host.displays_per_s": median(rate),
		"host.calibration_ms": median(cal),
	}
}

// merged folds Results with metrics.Run.Merge: counters add, busy
// ratios average over equal windows, latency tallies combine.
func merged(rs []sched.Result) metrics.Run {
	var m metrics.Run
	for _, r := range rs {
		m.Merge(r)
	}
	return m
}

// perLayerValues summarises a traced run.  base are the untraced
// replicates run first in the same process, traced those run under
// the tracer and profile.
func perLayerValues(base, traced []*replicate, tr *tracer, sh profileShares) map[string]float64 {
	last := traced[len(traced)-1]
	sim := last.sim
	nrep := float64(len(traced))
	v := map[string]float64{
		"sched.step_us.n":           float64(tr.steps.n),
		"sched.queue_depth.max":     float64(tr.depthMax),
		"sched.admissions":          float64(tr.admissions) / nrep,
		"sched.admit_wait_s.n":      float64(tr.waits.n),
		"core.evictions":            float64(tr.evictions) / nrep,
		"core.resident_objects":     float64(sim.UniqueResidents),
		"tertiary.materializations": float64(sim.Materializa),
		"tertiary.busy":             sim.TertiaryBusy,
		"policy.replications":       float64(sim.Replications),
		"workload.requests":         float64(sim.Requests),
		"cache.hit_rate":            sim.CacheHitRate(),
		"cache.served":              float64(sim.ServedFromCache),
		"cache.followers":           float64(sim.BatchedFollowers),
		"trace.step_samples":        float64(sh.stepTotal),
		"trace.setup_samples":       float64(sh.setupTotal),
		"model.table4_err_pct":      last.table4Err,
		"model.startup_mean_s":      sim.Latency.Mean(),
	}
	if k, ok := tr.steps.quantile(0.5); ok {
		v["sched.step_us.p50"] = stepBinMicros(k)
	}
	if k, ok := tr.steps.quantile(0.99); ok {
		v["sched.step_us.p99"] = stepBinMicros(k)
	}
	if k, ok := tr.waits.quantile(0.5); ok {
		v["sched.admit_wait_s.p50"] = float64(k) * tr.intervalSeconds
	}
	if k, ok := tr.waits.quantile(0.99); ok {
		v["sched.admit_wait_s.p99"] = float64(k) * tr.intervalSeconds
	}
	if tr.windowSteps > 0 {
		v["sched.queue_depth.mean"] = tr.depthSum / float64(tr.windowSteps)
		v["sched.active_displays.mean"] = tr.activeSum / float64(tr.windowSteps)
	}
	if tr.attempts > 0 {
		v["sched.admit_yield"] = float64(tr.admissions) / tr.attempts
	}
	if tr.waitSeconds > 0 {
		v["sched.littles_ratio"] = tr.queueSeconds / tr.waitSeconds
	}
	for _, ph := range phases {
		v["sched.phase."+ph+"_share"] = sh.ratio(sh.phase[ph], sh.stepTotal)
	}
	for _, l := range layers {
		v[l+".step_share"] = sh.ratio(sh.stepLayer[l], sh.stepTotal)
	}
	for _, l := range []string{"sched", "core", "runtime"} {
		v[l+".setup_share"] = sh.ratio(sh.setupLayer[l], sh.setupTotal)
	}
	if c := last.cluster; c != nil {
		v["cluster.no_holder"] = float64(c.NoHolder)
		v["cluster.failed_over"] = float64(c.FailedOver)
		v["cluster.orphaned"] = float64(c.OrphanedRequests)
		v["cluster.orphaned_displays"] = float64(c.Aggregate.OrphanedDisplays)
		v["cluster.readmitted"] = float64(c.ReAdmitted)
		v["cluster.healed"] = float64(c.HealedReplicas)
	}
	var gcs, pauses, tracedRun []float64
	for _, r := range base {
		gcs = append(gcs, float64(r.gcCycles))
		pauses = append(pauses, r.gcPause.Seconds()*1e3)
	}
	for _, r := range traced {
		tracedRun = append(tracedRun, r.run.Seconds())
	}
	v["runtime.gc_cycles"] = median(gcs)
	v["runtime.gc_pause_ms"] = median(pauses)
	host := hostValues(base)
	for k, x := range host {
		v[k] = x
	}
	v["trace.overhead"] = median(tracedRun) / host["host.run_s"]
	return v
}

// The layers are this repository's modules.  A CPU sample is charged
// by its innermost frame (self time): to that frame's module; to
// runtime for the collector, the allocator and the copy routines; and
// for any other standard-library helper (math, sort, ...) to the
// module that called it.  Work the instrumentation itself causes —
// a stack that reaches the pprof label machinery, the clock or this
// benchmark before any module frame — is charged to "trace", and a
// stack with no module frame at all to "other".
const modulePrefix = "github.com/mmsim/staggered/internal/"

var (
	layers = []string{"sched", "core", "sim", "tertiary", "policy", "rng", "workload", "cache", "cluster", "runtime", "trace"}
	// phases are the engine's pprof "phase" label values; a stepping
	// sample with any other value or none counts as "other".
	phases = []string{"admit", "finishDue", "tertiary", "coalesce", "cache", "other"}
)

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func layerOf(frames []string) string {
	runtimeLeaf := len(frames) > 0 && isRuntime(funcPackage(frames[0]))
	for _, f := range frames {
		pkg := funcPackage(f)
		switch {
		case isRuntime(pkg):
		case strings.HasPrefix(pkg, modulePrefix):
			if runtimeLeaf {
				return "runtime"
			}
			name, _, _ := strings.Cut(strings.TrimPrefix(pkg, modulePrefix), "/")
			return name
		case pkg == "runtime/pprof" || pkg == "context" || pkg == "time" || pkg == "main":
			return "trace"
		}
	}
	if runtimeLeaf {
		return "runtime"
	}
	return "other"
}

// profileShares splits a traced run's CPU samples into set-up (label
// bench=setup) and stepping, and counts each by layer and, for
// stepping, by engine phase.  Samples the harness labels as its own
// are dropped.  The engine's phase wrapper resets the goroutine's
// labels when a phase ends, and the collector's background workers
// carry none, so unlabeled samples count as stepping: after set-up
// the traced run does nothing else.
type profileShares struct {
	setupTotal, stepTotal int64
	setupLayer, stepLayer map[string]int64
	phase                 map[string]int64
}

func shareProfile(samples []profSample) profileShares {
	sh := profileShares{
		setupLayer: map[string]int64{},
		stepLayer:  map[string]int64{},
		phase:      map[string]int64{},
	}
	for _, s := range samples {
		layer := layerOf(s.frames)
		switch s.labels["bench"] {
		case "harness":
			continue
		case "setup":
			sh.setupTotal += s.count
			sh.setupLayer[layer] += s.count
			continue
		}
		sh.stepTotal += s.count
		sh.stepLayer[layer] += s.count
		ph := s.labels["phase"]
		switch ph {
		case "admit", "finishDue", "tertiary", "coalesce", "cache":
		default:
			ph = "other"
		}
		sh.phase[ph] += s.count
	}
	return sh
}

func (profileShares) ratio(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}
