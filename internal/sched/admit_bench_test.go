package sched

import (
	"testing"
	"time"

	"github.com/mmsim/staggered/internal/tertiary"
)

// Per-layer microbenchmarks of the admission scans, striped and VDR.
// Each iteration runs one interval of a closed-loop engine in steady
// state; ns/op is the whole interval, admit-ns/interval the admission
// scan alone, and the remaining metrics record the queue shape the
// scan walked.  The striped scale geometry is written out here (50
// disks, 40 objects, 60 cylinders per disk per unit factor) so the
// whole catalog is resident and no tertiary work interferes.

// admitBenchConfig is the scale geometry at factor f with the given
// station count and access-distribution mean.
func admitBenchConfig(f, stations int, mean float64) Config {
	return Config{
		D:                 50 * f,
		K:                 5,
		CapacityFragments: 60 * f,
		Objects:           40 * f,
		Subobjects:        30,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          stations,
		DistMean:          mean,
		Seed:              1,
		WarmupIntervals:   200,
		MeasureIntervals:  1,
		PlaceRetryLimit:   32,
	}
}

// admitBenchEngines caches each benchmark's engine across the calls the
// testing package makes with growing b.N: preloading the catalog costs
// far more than the intervals measured, and a warmed-up engine stays
// in steady state as it keeps stepping.
var admitBenchEngines = map[string]*Engine{}

// warmAdmitEngine returns the benchmark's engine for the technique,
// built and stepped through warm-up on first use.
func warmAdmitEngine(b *testing.B, key string, cfg Config) *Engine {
	e := admitBenchEngines[b.Name()]
	if e == nil {
		var err error
		if e, _, err = NewEngineFor(key, cfg, 0); err != nil {
			b.Fatal(err)
		}
		for e.Now() < cfg.WarmupIntervals {
			e.StepOne()
		}
		admitBenchEngines[b.Name()] = e
	}
	return e
}

func benchAdmit(b *testing.B, cfg Config) {
	e := warmAdmitEngine(b, "striped", cfg)
	t := e.tech.(*stripedTech)
	waiters, objects, admits := 0, 0, 0
	var admitTime time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Engine.step and stripedTech.interval for this configuration
		// (closed loop, zero think time, no faults, cache or
		// coalescing), with the admission phase timed on its own.
		t.rot = (t.cfg.K * e.now) % t.cfg.D
		t.finishDue()
		t.stepTertiary()
		waiters += t.nQueued
		objects += len(t.waitIdx)
		before := e.admittedTotal
		t0 := time.Now()
		t.admit()
		admitTime += time.Since(t0)
		admits += e.admittedTotal - before
		e.busyArea += float64(t.busy)
		e.now++
	}
	n := float64(b.N)
	b.ReportMetric(float64(admitTime.Nanoseconds())/n, "admit-ns/interval")
	b.ReportMetric(float64(waiters)/n, "waiters")
	b.ReportMetric(float64(objects)/n, "queued-objects")
	b.ReportMetric(float64(admits)/n, "admits/interval")
}

// BenchmarkAdmitHotQueue is the benchmark's hot-set regime: ~40k
// waiters on ~40 hot objects, so a per-request scan walks a thousand
// waiters per distinct object.
func BenchmarkAdmitHotQueue(b *testing.B) {
	benchAdmit(b, admitBenchConfig(200, 40000, 20))
}

// BenchmarkAdmitSpread spreads ~20k waiters over ~16k objects (the
// access mean scaled with the catalog): nearly every waiter heads its
// own list, so walking objects saves little over walking requests.
func BenchmarkAdmitSpread(b *testing.B) {
	benchAdmit(b, admitBenchConfig(800, 28000, 16000))
}

// BenchmarkAdmitVDR is the VDR baseline on the Table 3 farm at one of
// Table 4's points (256 stations, mean 20): 200 clusters, a queue of
// about two hundred waiters, and a tertiary-bound staging pipeline.
// scanned is the share of intervals whose admission scan ran; the rest
// returned at once because nothing the scan reads had changed.
func BenchmarkAdmitVDR(b *testing.B) {
	e := warmAdmitEngine(b, "vdr", Table3Config(256, 20, 1))
	t := e.tech.(*vdrTech)
	waiters, scans, admits := 0, 0, 0
	var admitTime time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Engine.step and vdrTech.interval for this configuration
		// (closed loop, zero think time, no faults or cache), with the
		// admission phase timed on its own.
		t.finishDue()
		t.stepTertiary()
		waiters += len(t.queue)
		if t.epoch != t.quietAt {
			scans++
		}
		before := e.admittedTotal
		t0 := time.Now()
		t.admit()
		admitTime += time.Since(t0)
		admits += e.admittedTotal - before
		e.busyArea += float64(t.busyClusters * t.cfg.M)
		e.now++
	}
	n := float64(b.N)
	b.ReportMetric(float64(admitTime.Nanoseconds())/n, "admit-ns/interval")
	b.ReportMetric(float64(scans)/n, "scanned")
	b.ReportMetric(float64(waiters)/n, "waiters")
	b.ReportMetric(float64(admits)/n, "admits/interval")
}

// BenchmarkVDRWarmStart is the VDR warm start alone on the Table 3
// farm at 256 stations: the replica candidates of the 2,000-object
// catalog ranked by marginal value and placed on the 200 clusters.
func BenchmarkVDRWarmStart(b *testing.B) {
	e, _, err := NewEngineFor("vdr", Table3Config(256, 20, 1), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var t vdrTech
		if err := t.bind(e); err != nil {
			b.Fatal(err)
		}
	}
}
