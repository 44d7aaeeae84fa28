package sched

import (
	"fmt"
	"testing"

	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/rng"
	"github.com/mmsim/staggered/internal/tertiary"
)

// chaosScenarios is how many randomized fault scenarios the chaos
// harness runs.  The acceptance floor is 200; a few more cost little.
// The scenarios from chaosThinkFrom on add think time, so stations
// also leave the queue for the wake-up wheel; choosing them by index
// keeps the draws, and so the configs, of the zero-think ones fixed.
const (
	chaosScenarios = 320
	chaosThinkFrom = 240
)

// chaosConfig is a tiny farm that still exercises every subsystem:
// materialization pressure (farm fits ~15 of 20 objects), mixed
// strides, and both engines.  Warm-up is zero so the window counters
// equal the lifetime counters the invariants reason about.
func chaosConfig(stations int, mean float64, seed uint64) Config {
	return Config{
		D:                 20,
		K:                 4,
		CapacityFragments: 30,
		Objects:           20,
		Subobjects:        10,
		M:                 4,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Table3,
		TapeLayout:        tertiary.DiskMatched,
		Stations:          stations,
		DistMean:          mean,
		Seed:              seed,
		WarmupIntervals:   0,
		MeasureIntervals:  400,
		PlaceRetryLimit:   8,
	}
}

// chaosPlan draws a random but deterministic fault plan: a mix of
// one-shot and repaired disk failures, slow windows, tertiary
// outages, and occasionally a wear process, all inside the run.
func chaosPlan(s *rng.Stream, d, horizon int) *fault.Plan {
	p := fault.NewPlan()
	for i, n := 0, 1+s.Intn(4); i < n; i++ {
		at := s.Intn(horizon)
		switch s.Intn(5) {
		case 0:
			p.FailDisk(s.Intn(d), at)
		case 1:
			p.FailDiskUntil(s.Intn(d), at, at+1+s.Intn(horizon/2))
		case 2:
			p.SlowDisk(s.Intn(d), at, at+1+s.Intn(horizon/2))
		case 3:
			p.TertiaryOutage(at, at+1+s.Intn(horizon/2))
		case 4:
			lo := s.Intn(d)
			hi := lo + s.Intn(d-lo)
			disks := make([]int, 0, hi-lo+1)
			for f := lo; f <= hi; f++ {
				disks = append(disks, f)
			}
			p.WearProcess(disks, 20+s.Uniform(0, 60), 5+s.Uniform(0, 20), horizon, s.Uint64())
		}
	}
	return p
}

// TestChaos runs hundreds of seeded fault scenarios across all
// techniques and asserts the structural invariants a degraded run
// must keep: no negative counters, closed-loop station conservation
// (every station is queued, in delivery, or thinking at quiescence),
// and display conservation (admitted = completed + aborted + active),
// and, after every interval, the waiting-request structure
// (Engine.CheckQueue).  Every vdr scenario also runs a second time
// with the admission scan forced every interval, and must come out
// the same (checkForcedScan).
// It runs in -short mode on purpose — scripts/ci.sh puts it under
// -race.
func TestChaos(t *testing.T) {
	techniques := []struct {
		key    string
		stride int
	}{
		{"striped", 0},
		{"staggered", 1},
		{"staggered", 2},
		{"staggered", 4},
		{"vdr", 0},
	}
	means := []float64{5, 10, 15}
	for i := 0; i < chaosScenarios; i++ {
		i := i
		tc := techniques[i%len(techniques)]
		name := fmt.Sprintf("%03d-%s-k%d", i, tc.key, tc.stride)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s := rng.NewSource(uint64(1000 + i)).Stream("chaos")
			cfg := chaosConfig(2+s.Intn(10), means[s.Intn(len(means))], uint64(1+i))
			if i%3 == 0 {
				// A deep queue: many waiters per object on the
				// 20-object catalog.
				cfg.Stations *= 12
			}
			cfg.EvictionPressure = s.Intn(2) == 1
			cfg.Faults = chaosPlan(s, cfg.D, cfg.MeasureIntervals)
			if i >= chaosThinkFrom {
				cfg.ThinkMeanSeconds = 10
			}
			e, _, err := NewEngineFor(tc.key, cfg, tc.stride)
			if err != nil {
				t.Fatal(err)
			}
			var digest func() string
			if tc.key == "vdr" {
				digest = traceDigest(e)
			}
			// Step by hand (zero warm-up, so this is Run) to check the
			// waiting-request structure after every interval.
			// Starvation is a legitimate outcome on a tiny farm under
			// fire, so the run itself has no failure mode here.
			for e.HasPendingWork() {
				e.StepOne()
				if err := e.CheckQueue(); err != nil {
					t.Fatalf("interval %d: %v", e.Now()-1, err)
				}
			}
			res := e.Snapshot()
			if digest != nil {
				checkForcedScan(t, cfg, false, res, digest())
			}

			for _, c := range []struct {
				name  string
				value int
			}{
				{"Displays", res.Displays},
				{"Materializa", res.Materializa},
				{"Replications", res.Replications},
				{"Hiccups", res.Hiccups},
				{"Coalescings", res.Coalescings},
				{"UniqueResidents", res.UniqueResidents},
				{"Requests", res.Requests},
				{"DegradedHiccups", res.DegradedHiccups},
				{"AbortedDisplays", res.AbortedDisplays},
				{"RejectedDegraded", res.RejectedDegraded},
				{"StarvedMaterializations", res.StarvedMaterializations},
				{"Latency.N", res.Latency.N()},
			} {
				if c.value < 0 {
					t.Errorf("negative counter %s = %d", c.name, c.value)
				}
			}

			// Display conservation over the whole run.
			active := e.tech.activeDisplays()
			if e.admittedTotal != e.completedTotal+e.abortedTotal+active {
				t.Errorf("display conservation violated: admitted %d != completed %d + aborted %d + active %d",
					e.admittedTotal, e.completedTotal, e.abortedTotal, active)
			}
			// Zero warm-up makes window counters lifetime counters.
			if res.Displays != e.completedTotal || res.AbortedDisplays != e.abortedTotal {
				t.Errorf("window/lifetime drift: Displays %d vs %d, Aborted %d vs %d",
					res.Displays, e.completedTotal, res.AbortedDisplays, e.abortedTotal)
			}

			// Closed-loop station conservation: every station is
			// queued, in delivery, or on the wake-up wheel thinking
			// (never, with zero think time); none leak.
			out, thinking := e.stn.Outstanding(), e.wakeups.Len()
			if cfg.ThinkMeanSeconds == 0 && thinking > 0 {
				t.Errorf("%d stations thinking with zero think time", thinking)
			}
			if out+thinking != cfg.Stations {
				t.Errorf("stuck stations: %d outstanding + %d thinking of %d", out, thinking, cfg.Stations)
			}
			if got := e.QueuedRequests() + active; got != out {
				t.Errorf("station accounting: queue %d + active %d != outstanding %d",
					e.QueuedRequests(), active, out)
			}

			// The fault masks must return to the plan's terminal state:
			// counts never drift negative.
			if e.downCount < 0 || e.slowCount < 0 {
				t.Errorf("mask drift: downCount %d, slowCount %d", e.downCount, e.slowCount)
			}
		})
	}
}

// TestShardedChaos is a second, independently seeded slice of the
// chaos harness, half of it closed-loop with think time.  It is named
// for the sharded drain it was first written against; the engine now
// runs one sequential path, and the slice keeps the same 81 configs.
// The structural invariants of a degraded run (display and station
// conservation, no negative counters) must hold at quiescence, and
// every vdr scenario must come out the same with the admission scan
// forced every interval (checkForcedScan).
func TestShardedChaos(t *testing.T) {
	techniques := []struct {
		key    string
		stride int
	}{
		{"striped", 0},
		{"staggered", 2},
		{"vdr", 0},
	}
	means := []float64{5, 10, 15}
	for i := 0; i < 81; i++ {
		i := i
		tc := techniques[i%len(techniques)]
		t.Run(fmt.Sprintf("%03d-%s-k%d", i, tc.key, tc.stride), func(t *testing.T) {
			t.Parallel()
			s := rng.NewSource(uint64(7000 + i)).Stream("chaos")
			cfg := chaosConfig(2+s.Intn(10), means[s.Intn(len(means))], uint64(1+i))
			cfg.EvictionPressure = s.Intn(2) == 1
			cfg.Faults = chaosPlan(s, cfg.D, cfg.MeasureIntervals)
			cfg.ThinkMeanSeconds = float64(s.Intn(2)) * 10 // half zero-think, half closed-loop
			e, _, err := NewEngineFor(tc.key, cfg, tc.stride)
			if err != nil {
				t.Fatal(err)
			}
			var digest func() string
			if tc.key == "vdr" {
				digest = traceDigest(e)
			}
			res, runErr := e.RunChecked()
			if runErr != nil {
				if _, ok := runErr.(*StarvationError); !ok {
					t.Fatalf("RunChecked: %v", runErr)
				}
			}
			if digest != nil {
				checkForcedScan(t, cfg, true, res, digest())
			}
			active := e.tech.activeDisplays()
			if e.admittedTotal != e.completedTotal+e.abortedTotal+active {
				t.Errorf("display conservation violated: admitted %d != completed %d + aborted %d + active %d",
					e.admittedTotal, e.completedTotal, e.abortedTotal, active)
			}
			if e.downCount < 0 || e.slowCount < 0 {
				t.Errorf("mask drift: downCount %d, slowCount %d", e.downCount, e.slowCount)
			}
			if cfg.ThinkMeanSeconds == 0 {
				// Zero think: every station is queued or in delivery.
				if got := e.QueuedRequests() + active; got != cfg.Stations {
					t.Errorf("station accounting: queue %d + active %d != stations %d",
						e.QueuedRequests(), active, cfg.Stations)
				}
			}
		})
	}
}

// checkForcedScan is the differential check of the VDR scan-on-change
// gate: it re-runs a vdr scenario with the quiet mark invalidated
// before every StepOne, so the admission scan runs every interval, and
// fails unless the Result and the trace digest equal the gated run's.
// window opens the measurement window after Prime, as Run does (the
// chaos configs have zero warm-up); without it the run is stepped the
// way TestChaos steps it.
func checkForcedScan(t *testing.T, cfg Config, window bool, res Result, digest string) {
	t.Helper()
	e, _, err := NewEngineFor("vdr", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	forced := traceDigest(e)
	e.Prime()
	if window {
		e.ResetWindow()
	}
	vt := e.tech.(*vdrTech)
	for e.HasPendingWork() {
		vt.quietAt = -1
		e.StepOne()
	}
	if got := e.Snapshot(); got != res {
		t.Errorf("forced scan changed the Result:\n  gated:  %+v\n  forced: %+v", res, got)
	}
	if got := forced(); got != digest {
		t.Errorf("forced scan changed the trace: gated %s, forced %s", digest, got)
	}
}

// TestChaosDeterministic pins that a faulted run is exactly as
// reproducible as a clean one.
func TestChaosDeterministic(t *testing.T) {
	build := func() Result {
		s := rng.NewSource(424242).Stream("chaos")
		cfg := chaosConfig(8, 10, 7)
		cfg.Faults = chaosPlan(s, cfg.D, cfg.MeasureIntervals)
		e, _, err := NewEngineFor("staggered", cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := e.RunChecked()
		return res
	}
	a, b := build(), build()
	if a != b {
		t.Errorf("same seed, different faulted results:\n  first:  %+v\n  second: %+v", a, b)
	}
}
