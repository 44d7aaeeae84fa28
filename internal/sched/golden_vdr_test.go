package sched

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
)

// Golden pin for the VDR baseline's admission scan: the arrival-order
// walk decides which waiter starts on which idle replica, which cold
// object reaches the tertiary device first, and when a contended
// object queues a replication or starts a disk-to-disk copy.  Each line
// carries the full Result plus a digest of the complete trace-event
// stream (admissions included), so the order of decisions is pinned,
// not only their counts.  Regenerate with:
//
//	go test ./internal/sched -run TestGoldenVDR -update-golden-vdr

var updateGoldenVDR = flag.Bool("update-golden-vdr", false,
	"rewrite testdata/golden_vdr.txt from the current engine")

// vdrGoldenConfigs enumerates the pinned VDR runs on the small farm:
// ten 5-disk clusters holding two objects each, against a 40-object
// catalog, so the tertiary device and the replica policy both bind.
func vdrGoldenConfigs() []struct {
	name string
	cfg  Config
} {
	var out []struct {
		name string
		cfg  Config
	}
	add := func(name string, cfg Config) {
		out = append(out, struct {
			name string
			cfg  Config
		}{name, cfg})
	}
	for _, pt := range []struct {
		stations int
		mean     float64
	}{{16, 10}, {64, 20}, {400, 10}} {
		cfg := smallConfig(pt.stations, pt.mean)
		cfg.Seed = 21
		add(fmt.Sprintf("vdr-mean%v-st%d", pt.mean, pt.stations), cfg)
	}

	// Disk faults: displays on a cluster with a down disk abort after
	// the hiccup limit, waiters whose every replica is behind a down
	// disk are rejected, and a slow disk only counts degraded hiccups.
	failPlan := fault.NewPlan().
		FailDiskUntil(7, 900, 1500).
		SlowDisk(21, 1200, 1900).
		FailDiskUntil(33, 2400, 2600)
	think := smallConfig(64, 10)
	think.ThinkMeanSeconds = 30
	think.Faults = failPlan
	think.Seed = 22
	add("think-faults-vdr-st64", think)
	deep := smallConfig(400, 10)
	deep.Faults = failPlan
	deep.Seed = 23
	add("faults-vdr-st400", deep)

	// The disk-to-disk ablation: a copy keeps its waiter queued, and a
	// second idle replica may admit it in a later interval.
	for _, st := range []int{64, 400} {
		cfg := smallConfig(st, 10)
		cfg.DiskToDiskCopy = true
		cfg.Seed = 24
		add(fmt.Sprintf("d2d-vdr-st%d", st), cfg)
	}

	// A cold catalog: most objects stage through the tertiary device,
	// whose request order follows the scan, across an outage.
	cold := smallConfig(64, 20)
	cold.PreloadTop = 4
	cold.Faults = fault.NewPlan().TertiaryOutage(1000, 1300)
	cold.Seed = 25
	add("preload4-tertoutage-vdr-st64", cold)

	// Non-default replication triggers, one lean and one eager, on a
	// farm with room for eight objects per cluster, so staged replicas
	// are not all crowded out by misses.
	for _, theta := range []float64{1.5, 8} {
		cfg := smallConfig(64, 10)
		cfg.CapacityFragments = 240
		cfg.ReplicationTheta = theta
		cfg.Seed = 26
		add(fmt.Sprintf("theta%v-vdr-st64", theta), cfg)
	}

	// Cache tier with batching and staging aborts: batched followers
	// requeue as ordinary waiters behind the aborted staging object.
	cached := smallConfig(400, 10)
	cached.ZipfSkew = 1.1
	cached.PreloadTop = 8
	cached.Cache = &cache.Spec{BudgetBytes: 256 << 20, BatchWindow: 8}
	cached.Faults = fault.NewPlan().TertiaryOutage(650, 1400).TertiaryOutage(2000, 2600)
	cached.Seed = 27
	add("cache-batch-abort-vdr-st400", cached)
	return out
}

// vdrKillDump pins Engine.Kill on a VDR member with a deep open-arrivals
// queue: the orphan list must come out in arrival order, and the
// revived member must go on to the same Result.
func vdrKillDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, withCache := range []bool{false, true} {
		cfg := smallConfig(400, 10)
		cfg.ArrivalsPerHour = 60000
		cfg.Seed = 28
		name := "kill-vdr"
		if withCache {
			cfg.Cache = &cache.Spec{BudgetBytes: 256 << 20, BatchWindow: 8}
			cfg.PreloadTop = 8
			name = "kill-vdr-cache"
		}
		e, _, err := NewEngineFor("vdr", cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		digest := traceDigest(e)
		for e.Now() < 1500 {
			if e.Now() == cfg.WarmupIntervals {
				e.ResetWindow()
			}
			e.StepOne()
		}
		queued := e.QueuedRequests()
		rep := e.Kill()
		e.Revive(1700)
		for e.HasPendingWork() {
			e.StepOne()
		}
		res := e.Snapshot()
		fmt.Fprintf(&b, "%s: queued=%d aborted=%d orphans=%v\n", name, queued, rep.Aborted, rep.Orphans)
		fmt.Fprintf(&b, "%s-revived: %+v %s\n", name, res, digest())
	}
	return b.String()
}

// vdrAdoptDump pins one replica-healing adoption mid-run: the hottest
// object the member does not hold is placed without tertiary time, and
// the run goes on around the new replica.
func vdrAdoptDump(t *testing.T) string {
	t.Helper()
	cfg := smallConfig(8, 10)
	cfg.Seed = 29
	e, _, err := NewEngineFor("vdr", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := traceDigest(e)
	for e.Now() < 1200 {
		if e.Now() == cfg.WarmupIntervals {
			e.ResetWindow()
		}
		e.StepOne()
	}
	id := 0
	for id < cfg.Objects && e.HoldsObject(id) {
		id++
	}
	ok := e.AdoptObject(id)
	for e.HasPendingWork() {
		e.StepOne()
	}
	return fmt.Sprintf("adopt-vdr-st8: object=%d placed=%v %+v %s\n", id, ok, e.Snapshot(), digest())
}

// vdrGoldenDump renders every pinned run.
func vdrGoldenDump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, vc := range vdrGoldenConfigs() {
		e, _, err := NewEngineFor("vdr", vc.cfg, 0)
		if err != nil {
			t.Fatalf("%s: %v", vc.name, err)
		}
		digest := traceDigest(e)
		res := e.Run()
		fmt.Fprintf(&b, "%s: %+v %s\n", vc.name, res, digest())
	}
	b.WriteString(vdrKillDump(t))
	b.WriteString(vdrAdoptDump(t))
	return b.String()
}

func TestGoldenVDR(t *testing.T) {
	if testing.Short() {
		t.Skip("VDR golden sweep is not short")
	}
	got := vdrGoldenDump(t)
	path := filepath.Join("testdata", "golden_vdr.txt")
	if *updateGoldenVDR {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing VDR golden dump (run with -update-golden-vdr): %v", err)
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
	t.Fatal("VDR dump differs from golden (extra lines)")
}
