package sched

import "testing"

// TestThinkTimeReducesLoad: with a think time comparable to the
// display time, a closed system of N stations offers roughly half the
// load, so completed displays must drop accordingly.
func TestThinkTimeReducesLoad(t *testing.T) {
	// Six stations on a ten-cluster farm: load-limited, not
	// capacity-limited, so the think time shows up directly.
	base := smallConfig(6, 5)
	e0, err := NewEngine(base, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	r0 := e0.Run()

	withThink := base
	// Think mean = one display time.
	withThink.ThinkMeanSeconds = float64(base.Subobjects) * base.IntervalSeconds()
	e1, err := NewEngine(withThink, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := e1.Run()

	if r1.Hiccups != 0 {
		t.Fatalf("hiccups with think time: %d", r1.Hiccups)
	}
	ratio := float64(r1.Displays) / float64(r0.Displays)
	if ratio < 0.35 || ratio > 0.65 {
		t.Fatalf("think-time throughput ratio = %v (displays %d vs %d), want ~0.5",
			ratio, r1.Displays, r0.Displays)
	}
}

func TestThinkTimeDeterministic(t *testing.T) {
	cfg := smallConfig(8, 10)
	cfg.ThinkMeanSeconds = 10
	run := func() Result {
		e, err := NewEngine(cfg, &stripedTech{})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	a, b := run(), run()
	if a.Displays != b.Displays {
		t.Fatal("think-time runs not reproducible")
	}
}

func TestNegativeThinkRejected(t *testing.T) {
	cfg := smallConfig(8, 10)
	cfg.ThinkMeanSeconds = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative think time accepted")
	}
}

// TestStrictFCFSCostsThroughput: head-of-line blocking can only lose
// throughput relative to the scan policy, and under a miss-heavy
// workload (cold object at the head stalls everything behind it) it
// must lose noticeably.
func TestStrictFCFSCostsThroughput(t *testing.T) {
	base := smallConfig(16, 40) // near-uniform: misses occur
	base.MeasureIntervals = 6000
	scan, err := NewEngine(base, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	rScan := scan.Run()

	strictCfg := base
	strictCfg.FCFSStrict = true
	strict, err := NewEngine(strictCfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	rStrict := strict.Run()

	if rStrict.Hiccups != 0 {
		t.Fatalf("hiccups under strict FCFS: %d", rStrict.Hiccups)
	}
	if rStrict.Displays > rScan.Displays {
		t.Fatalf("strict FCFS (%d) outperformed scanning (%d)", rStrict.Displays, rScan.Displays)
	}
	if float64(rStrict.Displays) > 0.9*float64(rScan.Displays) {
		t.Fatalf("strict FCFS (%d) lost under 10%% vs scanning (%d); head-of-line blocking should bite on misses",
			rStrict.Displays, rScan.Displays)
	}
}

// TestStrictFCFSNoStarvation: under strict FCFS the oldest request is
// always served first, so the maximum admission latency cannot exceed
// the scan policy's by orders of magnitude on a hit-only workload.
func TestStrictFCFSFairOnHits(t *testing.T) {
	base := smallConfig(16, 3) // extremely hot: everything resident
	strictCfg := base
	strictCfg.FCFSStrict = true
	strict, err := NewEngine(strictCfg, &stripedTech{})
	if err != nil {
		t.Fatal(err)
	}
	r := strict.Run()
	if r.Displays == 0 {
		t.Fatal("no displays under strict FCFS")
	}
	if r.Hiccups != 0 {
		t.Fatalf("hiccups: %d", r.Hiccups)
	}
}

// TestVDRDiskToDiskCopy exercises the charitable replication variant:
// replicas copied cluster-to-cluster at display bandwidth instead of
// staged through the tertiary device.
func TestVDRDiskToDiskCopy(t *testing.T) {
	cfg := smallConfig(32, 2.000001) // extreme skew forces replication
	cfg.DiskToDiskCopy = true
	e, err := NewEngine(cfg, &vdrTech{})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Hiccups != 0 {
		t.Fatalf("hiccups: %d", res.Hiccups)
	}
	if res.Replications == 0 {
		t.Fatal("no disk-to-disk replications under extreme skew")
	}
	// Copies must never exceed the farm's copy cap (clusters/16,
	// min 1) concurrently; with 10 clusters that is 1 at a time, so
	// the replication count is bounded by window/displaytime + 1.
	maxCopies := cfg.MeasureIntervals/cfg.Subobjects + 1
	if res.Replications > maxCopies {
		t.Fatalf("replications = %d exceed the single-copy bound %d", res.Replications, maxCopies)
	}
}

// TestVDRDiskToDiskVsTertiary: freeing replication from the tertiary
// queue must not hurt — the charitable variant's throughput is at
// least (approximately) the faithful variant's under hot contention.
func TestVDRDiskToDiskVsTertiary(t *testing.T) {
	base := smallConfig(32, 2.000001)
	tert, err := NewEngine(base, &vdrTech{})
	if err != nil {
		t.Fatal(err)
	}
	rTert := tert.Run()

	d2d := base
	d2d.DiskToDiskCopy = true
	eng, err := NewEngine(d2d, &vdrTech{})
	if err != nil {
		t.Fatal(err)
	}
	rD2D := eng.Run()

	if float64(rD2D.Displays) < 0.9*float64(rTert.Displays) {
		t.Fatalf("disk-to-disk copies (%d displays) markedly worse than tertiary staging (%d)",
			rD2D.Displays, rTert.Displays)
	}
}
