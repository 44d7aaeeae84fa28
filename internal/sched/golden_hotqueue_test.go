package sched

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
)

// Golden pin for the striped admission walk under deep queues: many
// waiters per object, so the FIFO tie-break between duplicates, the
// Algorithm-1 budget, strict FCFS, degraded-mode rejections, the
// tertiary request order and the cache tier's batch requeues all decide
// the outcome.  Each line carries the full Result plus a digest of the
// complete trace-event stream, so admission order (not only counts) is
// pinned.  Regenerate with:
//
//	go test ./internal/sched -run TestGoldenHotQueue -update-golden-hotqueue

var updateGoldenHotQueue = flag.Bool("update-golden-hotqueue", false,
	"rewrite testdata/golden_hotqueue.txt from the current engine")

// hotQueueConfigs enumerates the pinned deep-queue runs.
func hotQueueConfigs() []struct {
	name   string
	key    string
	stride int
	cfg    Config
} {
	var out []struct {
		name   string
		key    string
		stride int
		cfg    Config
	}
	add := func(name, key string, stride int, cfg Config) {
		out = append(out, struct {
			name   string
			key    string
			stride int
			cfg    Config
		}{name, key, stride, cfg})
	}
	for _, st := range []int{400, 800} {
		for _, seed := range []uint64{1, 2} {
			cfg := smallConfig(st, 10)
			cfg.Seed = seed
			add(fmt.Sprintf("striped-mean10-st%d-seed%d", st, seed), "striped", 0, cfg)
		}
	}

	// K=1 with Algorithms 1+2: the fragmented budget runs out while
	// duplicates of the same object still wait behind the head.
	for _, mean := range []float64{10, 20} {
		cfg := smallConfig(400, mean)
		cfg.Seed = 3
		add(fmt.Sprintf("staggered-k1-mean%v-st400", mean), "staggered", 1, cfg)
	}
	k2 := smallConfig(600, 10)
	k2.Seed = 4
	add("staggered-k2-mean10-st600", "staggered", 2, k2)

	// The whole catalog resident (as in the benchmark's hot set): no
	// waiter is cold, so only occupancy decides.
	resident := smallConfig(400, 10)
	resident.CapacityFragments = 120
	resident.Seed = 12
	add("striped-resident-mean10-st400", "striped", 0, resident)

	// Think time with strict FCFS: the scan stops at the first waiter
	// that cannot start, duplicates included.  The catalog is resident:
	// with a cold head every queued object is pinned, staging can never
	// make room, and a strict queue would never move.
	think := smallConfig(400, 10)
	think.CapacityFragments = 120
	think.ThinkMeanSeconds = 30
	think.FCFSStrict = true
	think.Seed = 5
	add("think-fcfs-striped-st400", "striped", 0, think)
	thinkFrag := think
	thinkFrag.Seed = 6
	add("think-fcfs-staggered-k1-st400", "staggered", 1, thinkFrag)
	thinkFrag.Fragmented = true
	add("think-fcfs-frag-striped-st400", "striped", 0, thinkFrag)

	// Mixed degrees (§3.2 media types): narrow objects fit the gaps a
	// wide head leaves, so under strict FCFS the stop at a duplicate
	// waiter decides whether a later object still starts.
	degrees := make([]int, 40)
	for i := range degrees {
		degrees[i] = []int{5, 2, 3, 1}[i%4]
	}
	for _, strict := range []bool{false, true} {
		cfg := smallConfig(400, 10)
		cfg.CapacityFragments = 120
		cfg.Degrees = degrees
		cfg.FCFSStrict = strict
		cfg.Seed = 13
		name := "mixed-degree-striped-st400"
		if strict {
			name = "mixed-degree-fcfs-striped-st400"
		}
		add(name, "striped", 0, cfg)
	}

	// Disk failures: every waiter of an unplayable object is rejected,
	// in arrival order, while playable objects keep admitting.
	failPlan := fault.NewPlan().
		FailDiskUntil(7, 900, 1500).
		SlowDisk(21, 1200, 1900).
		FailDiskUntil(33, 2400, 2600)
	for _, k := range []int{0, 1} {
		cfg := smallConfig(400, 10)
		cfg.Seed = 7
		cfg.Faults = failPlan
		key, name := "striped", "faults-striped-st400"
		if k == 1 {
			key, name = "staggered", "faults-staggered-k1-st400"
		}
		add(name, key, k, cfg)
	}
	strictFail := smallConfig(400, 10)
	strictFail.Seed = 8
	strictFail.FCFSStrict = true
	strictFail.CapacityFragments = 120
	strictFail.Faults = failPlan
	add("faults-fcfs-staggered-k1-st400", "staggered", 1, strictFail)

	// A small preload: cold objects queue on the tertiary device, whose
	// request order follows the admission walk.
	for _, k := range []int{0, 1} {
		cfg := smallConfig(400, 20)
		cfg.PreloadTop = 6
		cfg.Seed = 9
		cfg.Faults = fault.NewPlan().TertiaryOutage(1000, 1300)
		key, name := "striped", "preload6-striped-st400"
		if k == 1 {
			key, name = "staggered", "preload6-staggered-k1-st400"
		}
		add(name, key, k, cfg)
	}

	// Cache tier with batching and staging aborts: batched followers
	// requeue as ordinary waiters behind the aborted staging object.
	for _, k := range []int{0, 1} {
		cfg := smallConfig(400, 10)
		cfg.ZipfSkew = 1.1
		cfg.PreloadTop = 8
		cfg.Cache = &cache.Spec{BudgetBytes: 256 << 20, BatchWindow: 8}
		cfg.Faults = fault.NewPlan().TertiaryOutage(650, 1400).TertiaryOutage(2000, 2600)
		cfg.Seed = 10
		key, name := "striped", "cache-batch-abort-striped-st400"
		if k == 1 {
			key, name = "staggered", "cache-batch-abort-staggered-k1-st400"
		}
		add(name, key, k, cfg)
	}
	return out
}

// traceDigest installs a tracer hashing every event the engine emits
// and returns a function reporting the count and FNV-64a digest.
func traceDigest(e *Engine) func() string {
	h := fnv.New64a()
	n := 0
	e.SetTracer(func(ev Event) {
		n++
		fmt.Fprintln(h, ev.String())
	})
	return func() string { return fmt.Sprintf("events=%d digest=%016x", n, h.Sum64()) }
}

// hotQueueKillDump pins Engine.Kill on a deep open-arrivals queue: the
// orphan list must come out in arrival order, and the revived member
// must go on to the same Result.
func hotQueueKillDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, k := range []int{0, 1} {
		cfg := smallConfig(400, 10)
		cfg.ArrivalsPerHour = 60000
		cfg.Seed = 11
		if k == 1 {
			cfg.Cache = &cache.Spec{BudgetBytes: 256 << 20, BatchWindow: 8}
			cfg.PreloadTop = 8
		}
		key := "striped"
		if k == 1 {
			key = "staggered"
		}
		e, _, err := NewEngineFor(key, cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		digest := traceDigest(e)
		for e.Now() < 1500 {
			e.StepOne()
		}
		queued := e.QueuedRequests()
		rep := e.Kill()
		e.Revive(1700)
		for e.HasPendingWork() {
			e.StepOne()
		}
		res := e.Snapshot()
		fmt.Fprintf(&b, "kill-%s-k%d: queued=%d aborted=%d orphans=%v\n", key, k, queued, rep.Aborted, rep.Orphans)
		fmt.Fprintf(&b, "kill-%s-k%d-revived: %+v %s\n", key, k, res, digest())
	}
	return b.String()
}

// hotQueueDump renders every pinned run.
func hotQueueDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, hc := range hotQueueConfigs() {
		e, _, err := NewEngineFor(hc.key, hc.cfg, hc.stride)
		if err != nil {
			t.Fatalf("%s: %v", hc.name, err)
		}
		digest := traceDigest(e)
		res := e.Run()
		fmt.Fprintf(&b, "%s: %+v %s\n", hc.name, res, digest())
	}
	b.WriteString(hotQueueKillDump(t))
	return b.String()
}

func TestGoldenHotQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("hot-queue golden sweep is not short")
	}
	got := hotQueueDump(t)
	path := filepath.Join("testdata", "golden_hotqueue.txt")
	if *updateGoldenHotQueue {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing hot-queue golden dump (run with -update-golden-hotqueue): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			cur := "<missing>"
			if i < len(gotLines) {
				cur = gotLines[i]
			}
			t.Fatalf("result drift at line %d:\n  golden:  %s\n  current: %s", i+1, wantLines[i], cur)
		}
	}
	t.Fatal("hot-queue dump differs from golden (extra lines)")
}
