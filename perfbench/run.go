package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/sched"
)

// replicate is the outcome of running one plan once.  Only a summary
// of the simulated output is kept: a run holds dozens of replicates,
// and their full Results would grow the live heap that heap_mb samples.
type replicate struct {
	setup, run time.Duration // summed over the plan's simulations
	heapBytes  uint64        // largest live heap right after a set-up
	allocBytes uint64        // bytes allocated while stepping
	gcCycles   uint32
	gcPause    time.Duration
	cal        time.Duration // calibrate before plus after an untraced replicate

	sim       metrics.Run     // the engine Results merged, or the cluster's aggregate
	simRuns   int             // how many Results sim merges
	cluster   *cluster.Result // cluster plans: the ledger, without per-member slices
	digest    string
	table4Err float64  // paper plan only
	failures  []string // output checks that did not hold

	runs []sched.Result // engine Results while the plan runs
}

// requests is the number of simulated requests; unserved those the
// system refused or lost.  Displays cut short by the kill the fleet
// workload injects on purpose are its intended effect: they are
// reported as cluster.orphaned_displays and not counted here, while
// queued requests the kill drained and nobody re-admitted are
// (ReAdmitDropped).
func (r *replicate) requests() int {
	n := r.sim.Requests
	if r.cluster != nil {
		n += r.cluster.LostArrivals
	}
	return n
}

func (r *replicate) unserved() int {
	s := r.sim
	n := s.RejectedDegraded + s.AbortedDisplays - s.OrphanedDisplays + s.OpenRejected + s.StarvedMaterializations
	if r.cluster != nil {
		n += r.cluster.LostArrivals + r.cluster.ReAdmitDropped
	}
	return n
}

func (r *replicate) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runPlan executes one replicate.  With a tracer, set-up and stepping
// run under the tracer's pprof labels and every engine step is timed
// and probed; heap sampling, which forces collections the profile
// would charge to stepping, is skipped.
func runPlan(p plan, tr *tracer) (*replicate, error) {
	rep := &replicate{}
	for _, er := range p.engines {
		if err := runEngine(er, tr, rep); err != nil {
			return nil, err
		}
	}
	if p.cluster != nil {
		if err := runCluster(*p.cluster, tr, rep); err != nil {
			return nil, err
		}
	}
	results := rep.runs
	if rep.cluster != nil {
		results = []sched.Result{rep.cluster.Aggregate}
	}
	rep.sim, rep.simRuns = merged(results), len(results)
	rep.digest = digest(rep.runs, rep.cluster)
	if p.table4 {
		rep.table4Err = table4Error(rep.runs)
	}
	rep.runs = nil
	if rep.cluster != nil {
		rep.cluster.Servers, rep.cluster.Samples, rep.cluster.Routed = nil, nil, nil
	}
	return rep, nil
}

// calibrate times a fixed kernel that does not depend on the program:
// eight independent xorshift streams, so it is bound by instruction
// throughput, as the simulator's loops are, and slows when neighbours
// compete for the core.  About 10 ms on a current x86 server core.
func calibrate() time.Duration {
	t0 := time.Now()
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for i := 0; i < 3_000_000; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		e ^= e << 13
		f ^= f << 13
		g ^= g << 13
		h ^= h << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		e ^= e >> 7
		f ^= f >> 7
		g ^= g >> 7
		h ^= h >> 7
	}
	calSink += a + b + c + d + e + f + g + h
	return time.Since(t0)
}

// calSink keeps the calibration kernel's result live.
var calSink uint64

// memMark samples the allocator before and after stepping.
type memMark struct{ ms runtime.MemStats }

func (m *memMark) settle(rep *replicate, tr *tracer) {
	if tr == nil {
		runtime.GC()
	}
	runtime.ReadMemStats(&m.ms)
	if tr == nil && m.ms.HeapAlloc > rep.heapBytes {
		rep.heapBytes = m.ms.HeapAlloc
	}
}

func (m *memMark) since(rep *replicate) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	rep.allocBytes += now.TotalAlloc - m.ms.TotalAlloc
	rep.gcCycles += now.NumGC - m.ms.NumGC
	rep.gcPause += time.Duration(now.PauseTotalNs - m.ms.PauseTotalNs)
}

func runEngine(er engineRun, tr *tracer, rep *replicate) error {
	if tr == nil {
		runtime.GC()
	}
	tr.label(labelSetup)
	t0 := time.Now()
	e, cfg, err := sched.NewEngineFor(er.technique, er.cfg, 0)
	setup := time.Since(t0)
	tr.label(labelHarness)
	if err != nil {
		return fmt.Errorf("%s engine: %w", er.technique, err)
	}
	defer e.Close()
	rep.setup += setup

	var mark memMark
	mark.settle(rep, tr)
	var activeStart int
	t1 := time.Now()
	if tr == nil {
		for e.Now() < cfg.WarmupIntervals {
			e.StepOne()
		}
		e.ResetWindow()
		activeStart = e.ActiveDisplays()
		for e.HasPendingWork() {
			e.StepOne()
		}
	} else {
		activeStart = tr.stepEngine(e, cfg)
	}
	res := e.Snapshot()
	rep.run += time.Since(t1)
	mark.since(rep)
	rep.runs = append(rep.runs, res)
	tr.noteResult(res)

	tag := fmt.Sprintf("%s stations=%d mean=%v", er.technique, cfg.Stations, cfg.DistMean)
	rep.check(res.Displays > 0, "%s: no displays completed", tag)
	rep.check(res.Hiccups == 0, "%s: %d hiccups", tag, res.Hiccups)
	active := e.ActiveDisplays()
	rep.check(e.QueuedRequests()+active == cfg.Stations,
		"%s: station conservation: %d queued + %d active != %d stations",
		tag, e.QueuedRequests(), active, cfg.Stations)
	rep.check(activeStart+res.Latency.N() == res.Displays+res.AbortedDisplays+active,
		"%s: display conservation: %d active at window start + %d admitted != %d completed + %d aborted + %d active",
		tag, activeStart, res.Latency.N(), res.Displays, res.AbortedDisplays, active)
	return nil
}

func runCluster(cfg cluster.Config, tr *tracer, rep *replicate) error {
	if tr == nil {
		runtime.GC()
	}
	tr.label(labelSetup)
	t0 := time.Now()
	sim, err := cluster.New(cfg)
	setup := time.Since(t0)
	tr.label(labelHarness)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	rep.setup += setup

	var mark memMark
	mark.settle(rep, tr)
	tr.label(labelStep)
	t1 := time.Now()
	res, err := sim.Run()
	rep.run += time.Since(t1)
	tr.label(labelHarness)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	mark.since(rep)
	rep.cluster = &res
	tr.noteResult(res.Aggregate)

	agg := res.Aggregate
	rep.check(agg.Displays > 0, "cluster: no displays completed")
	rep.check(agg.Hiccups == 0, "cluster: %d hiccups", agg.Hiccups)
	rep.check(res.OrphanedRequests == res.ReAdmitted+res.ReAdmitDropped,
		"cluster: orphan ledger: %d orphaned != %d re-admitted + %d dropped",
		res.OrphanedRequests, res.ReAdmitted, res.ReAdmitDropped)
	sum := 0
	for _, s := range res.Servers {
		sum += s.Displays
	}
	rep.check(sum == agg.Displays, "cluster: member displays %d != aggregate %d", sum, agg.Displays)
	rep.check(res.Servers[fleetVictim].OrphanedDisplays+res.OrphanedRequests > 0,
		"cluster: the kill of member %d orphaned nothing", fleetVictim)
	return nil
}

// tracer is the instrumentation of a traced run: pprof labels that
// split the CPU profile into set-up, stepping and the harness's own
// bookkeeping, a sched.Tracer that counts events and pairs each
// station's request with its admission, and a timer and probe read
// around every StepOne.  Counts and sums accumulate over every
// replicate it observes.  Its methods are no-ops on a nil tracer.
type tracer struct {
	labels [3]context.Context // indexed by labelKind

	steps histogram // host time per StepOne, log-binned (stepBin)
	waits histogram // simulated request→admit wait in intervals (window)

	requests  int   // EvRequest events
	evictions int   // EvEvict events
	reqAt     []int // station -> interval of its open request, -1 if none
	warmup    int

	intervalSeconds float64 // simulated length of one interval

	windowSteps  int
	depthSum     float64
	depthMax     int
	activeSum    float64
	admissions   int
	attempts     float64
	queueSeconds float64 // Σ queue depth × interval length over the window
	waitSeconds  float64 // Σ admission latency of displays admitted in the window
}

// labelKind is the part of a traced run a CPU sample belongs to, as
// the pprof label bench=<name>.
type labelKind int

const (
	labelSetup labelKind = iota
	labelStep
	labelHarness
)

func newTracer() *tracer {
	t := &tracer{}
	for k, name := range []string{"setup", "step", "harness"} {
		t.labels[k] = pprof.WithLabels(context.Background(), pprof.Labels("bench", name))
	}
	return t
}

// label switches the goroutine's pprof labels to the given part of
// the run.
func (t *tracer) label(k labelKind) {
	if t != nil {
		pprof.SetGoroutineLabels(t.labels[k])
	}
}

func (t *tracer) noteResult(r sched.Result) {
	if t != nil {
		t.waitSeconds += r.Latency.Mean() * float64(r.Latency.N())
	}
}

func (t *tracer) event(ev sched.Event) {
	switch ev.Kind {
	case sched.EvRequest:
		t.requests++
		t.reqAt[ev.Station] = ev.Interval
	case sched.EvAdmit:
		if at := t.reqAt[ev.Station]; at >= 0 {
			if ev.Interval >= t.warmup {
				t.waits.add(ev.Interval - at)
			}
			t.reqAt[ev.Station] = -1
		}
	case sched.EvEvict:
		t.evictions++
	}
}

// stepEngine steps e through warm-up and measurement like the untraced
// loop, timing each StepOne and reading the queue and delivery probes
// after it.  Admissions per step come from the queue balance (depth
// before + requests − depth after), which holds for every technique,
// including those that emit no admit events.  It returns the active
// displays at the start of the measurement window.
func (t *tracer) stepEngine(e *sched.Engine, cfg sched.Config) int {
	t.warmup = cfg.WarmupIntervals
	t.reqAt = make([]int, cfg.Stations)
	for i := range t.reqAt {
		t.reqAt[i] = -1
	}
	e.SetTracer(t.event)
	dt := cfg.IntervalSeconds()
	t.intervalSeconds = dt
	depth, activeStart, window := 0, 0, false
	for e.HasPendingWork() {
		if !window && e.Now() == cfg.WarmupIntervals {
			e.ResetWindow()
			window = true
			activeStart = e.ActiveDisplays()
		}
		req := t.requests
		t.label(labelStep)
		t0 := time.Now()
		e.StepOne()
		d := time.Since(t0)
		t.label(labelHarness)
		t.steps.add(stepBin(d))
		q := e.QueuedRequests()
		admitted := depth + t.requests - req - q
		depth = q
		if !window {
			continue
		}
		t.windowSteps++
		t.depthSum += float64(q)
		if q > t.depthMax {
			t.depthMax = q
		}
		t.activeSum += float64(e.ActiveDisplays())
		t.admissions += admitted
		t.attempts += float64(q + admitted)
		t.queueSeconds += float64(q) * dt
	}
	e.SetTracer(nil)
	return activeStart
}
