package sched

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The calendar layer under the engines (event rings, tick wheels,
// wakeup buckets) must never change the simulated outcome.  This test
// pins the results of 52 configurations byte-for-byte: the dump was
// generated with the pre-wheel engines (map-keyed buckets over the
// binary-heap era kernel) and every later calendar swap has to
// reproduce it exactly.
//
// Regenerate with:  go test ./internal/sched -run TestGoldenSweep -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_sweep.txt from the current engines")

// goldenConfigs enumerates the 52 pinned configurations: both engines
// across the three paper distributions and a station sweep (48 runs),
// plus the variants with nontrivial calendar traffic — staggered
// striping with Algorithms 1+2, think time with strict FCFS, and VDR
// disk-to-disk copies.
func goldenConfigs() []struct {
	name    string
	cfg     Config
	striped bool
} {
	var out []struct {
		name    string
		cfg     Config
		striped bool
	}
	add := func(name string, cfg Config, striped bool) {
		out = append(out, struct {
			name    string
			cfg     Config
			striped bool
		}{name, cfg, striped})
	}
	for _, mean := range []float64{10, 20, 43.5} {
		for _, st := range []int{1, 8, 32, 64} {
			for _, seed := range []uint64{1, 2} {
				cfg := smallConfig(st, mean)
				cfg.Seed = seed
				name := fmt.Sprintf("mean%v-st%d-seed%d", mean, st, seed)
				add(name+"-striped", cfg, true)
				add(name+"-vdr", cfg, false)
			}
		}
	}
	staggered := smallConfig(48, 20)
	staggered.K = 1
	staggered.Fragmented = true
	staggered.Coalescing = true
	staggered.Seed = 3
	add("staggered-alg12", staggered, true)

	think := smallConfig(32, 10)
	think.ThinkMeanSeconds = 30
	think.FCFSStrict = true
	think.Seed = 4
	add("think-fcfs-striped", think, true)
	add("think-vdr", think, false)

	d2d := smallConfig(64, 10)
	d2d.DiskToDiskCopy = true
	d2d.Seed = 5
	add("d2d-vdr", d2d, false)
	return out
}

func goldenDump(t *testing.T) string {
	return goldenDumpWith(t, nil)
}

// goldenDumpWith renders the 52-config dump, optionally mutating each
// configuration first — the hook TestEmptyFaultPlanGolden uses to
// prove an empty fault plan changes nothing.
func goldenDumpWith(t *testing.T, mutate func(*Config)) string {
	t.Helper()
	var b strings.Builder
	for _, gc := range goldenConfigs() {
		if mutate != nil {
			mutate(&gc.cfg)
		}
		var tech Technique = &vdrTech{}
		if gc.striped {
			tech = &stripedTech{}
		}
		e, err := NewEngine(gc.cfg, tech)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		fmt.Fprintf(&b, "%s: %+v\n", gc.name, legacyView(e.Run()))
	}
	return b.String()
}

func TestGoldenSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("52-configuration sweep is not short")
	}
	cfgs := goldenConfigs()
	if len(cfgs) != 52 {
		t.Fatalf("golden sweep has %d configurations, want 52", len(cfgs))
	}
	path := filepath.Join("testdata", "golden_sweep.txt")
	got := goldenDump(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden dump (run with -update-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("result drift at line %d:\n  golden:  %s\n  current: %s", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatal("result dump differs from golden (extra lines)")
}
