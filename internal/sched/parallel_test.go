package sched

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"github.com/mmsim/staggered/internal/rng"
)

// TestMain forces at least two procs: the sharded release sort gates
// itself off on single-proc runs (it cannot pay for itself without
// real concurrency), and CI may run on a single-core box — without
// this the -race suites would never execute the parallel path.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	os.Exit(m.Run())
}

// These tests pin the DESIGN.md §11 determinism contract of sharded
// execution: (1) with zero think time a sharded run is
// decision-identical to the sequential path at any worker count, and
// (2) with think time (where shard-local streams replace the
// sequential per-station streams) the Result is byte-identical across
// worker counts — parallelism decides when shard-local values are
// computed, never what they are.  ci.sh runs the package under -race,
// which makes these tests also the no-data-races proof of the shard
// drains and release sorts.

// shardedConfigs are zero-think configurations spanning the three
// techniques' hot paths: plain striping, staggered striping with
// Algorithms 1+2, and the VDR baseline.
func shardedConfigs() map[string]struct {
	key    string
	stride int
	cfg    Config
} {
	staggered := smallConfig(48, 20)
	staggered.Fragmented = true
	staggered.Coalescing = true
	staggered.Seed = 3

	return map[string]struct {
		key    string
		stride int
		cfg    Config
	}{
		"striped":   {"striped", 0, smallConfig(64, 43.5)},
		"staggered": {"staggered", 1, staggered},
		"vdr":       {"vdr", 0, smallConfig(32, 10)},
	}
}

// TestShardedMatchesSequential asserts that with zero think time the
// sharded, multi-worker engine produces the exact Result of the
// default sequential path — the property that lets scale configs turn
// sharding on without forking the golden dumps.
func TestShardedMatchesSequential(t *testing.T) {
	for name, tc := range shardedConfigs() {
		t.Run(name, func(t *testing.T) {
			seq, _, err := NewEngineFor(tc.key, tc.cfg, tc.stride)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Shards = 4
			cfg.Workers = 2
			shd, _, err := NewEngineFor(tc.key, cfg, tc.stride)
			if err != nil {
				t.Fatal(err)
			}
			a, b := seq.Run(), shd.Run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("sharded result diverged from sequential:\n  sequential: %+v\n  sharded:    %+v", a, b)
			}
		})
	}
}

// TestWorkerInvariance asserts byte-identical Results for workers
// ∈ {1, 2, 8} at the same seed and shard count, across all three
// techniques, with think time engaged so the per-shard wheels and
// streams actually carry traffic.  Workers=1 runs everything inline
// (no pool), so equality across the set also proves the parallel
// drains decision-equivalent to the inline ones.
func TestWorkerInvariance(t *testing.T) {
	for name, tc := range shardedConfigs() {
		t.Run(name, func(t *testing.T) {
			var results []Result
			for _, workers := range []int{1, 2, 8} {
				cfg := tc.cfg
				cfg.ThinkMeanSeconds = 30
				cfg.Shards = 4
				cfg.Workers = workers
				e, _, err := NewEngineFor(tc.key, cfg, tc.stride)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, e.Run())
			}
			for i := 1; i < len(results); i++ {
				if !reflect.DeepEqual(results[0], results[i]) {
					t.Errorf("worker count changed the result:\n  workers=1: %+v\n  workers=%d: %+v",
						results[0], []int{1, 2, 8}[i], results[i])
				}
			}
		})
	}
}

// TestWorkerInvarianceFaulted repeats the invariance check under an
// active fault plan: degraded scans, aborts and refusals must be
// worker-count independent too.
func TestWorkerInvarianceFaulted(t *testing.T) {
	var results []Result
	for _, workers := range []int{1, 2, 8} {
		cfg := chaosConfig(8, 10, 77)
		cfg.ThinkMeanSeconds = 10
		cfg.Shards = 3
		cfg.Workers = workers
		s := rng.NewSource(4242).Stream("chaos")
		cfg.Faults = chaosPlan(s, cfg.D, cfg.MeasureIntervals)
		e, _, err := NewEngineFor("staggered", cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := e.RunChecked()
		if runErr != nil {
			if _, ok := runErr.(*StarvationError); !ok {
				t.Fatalf("RunChecked: %v", runErr)
			}
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("worker count changed the faulted result:\n  workers=1: %+v\n  other:     %+v",
				results[0], results[i])
		}
	}
}

// TestShardedChaos reruns a slice of the chaos harness with sharding
// and workers enabled: the structural invariants of a degraded run
// (display and station conservation, no negative counters) must
// survive the parallel drain and merge.
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
			cfg.Shards = 3
			cfg.Workers = 2
			e, _, err := NewEngineFor(tc.key, cfg, tc.stride)
			if err != nil {
				t.Fatal(err)
			}
			_, runErr := e.RunChecked()
			if runErr != nil {
				if _, ok := runErr.(*StarvationError); !ok {
					t.Fatalf("RunChecked: %v", runErr)
				}
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
