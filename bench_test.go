package mmis

// One benchmark per table and figure of the paper.  Each bench
// regenerates its artifact end to end; the figure-8/table-4 benches
// run the Quick experiment scale so that `go test -bench=.` finishes
// in minutes — `cmd/sweep -scale full` regenerates the full Table 3
// configuration (the numbers recorded in EXPERIMENTS.md).

import (
	"testing"

	"github.com/mmsim/staggered/internal/analytic"
	"github.com/mmsim/staggered/internal/core"
	"github.com/mmsim/staggered/internal/diskmodel"
	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/vdisk"
)

// BenchmarkFigure1Layout regenerates Figure 1: simple striping of
// object X (M=3) over 9 disks in 3 clusters.
func BenchmarkFigure1Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure1(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Protocol exercises the §3.1 four-step disk protocol
// behind Figure 2 at the event level: seek, rotate, read, transmit —
// hiccup-free inside the worst-case interval.
func BenchmarkFigure2Protocol(b *testing.B) {
	res, err := sched.RunMicro(sched.MicroConfig{
		Disk:          diskmodel.Sabre,
		FragmentBytes: diskmodel.Sabre.CylinderBytes,
		M:             3,
		N:             b.N + 1,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Hiccups != 0 {
		b.Fatalf("hiccups: %d", res.Hiccups)
	}
}

// BenchmarkFigure3Schedule regenerates Figure 3: the rotating cluster
// schedule of three displays with X finishing mid-window.
func BenchmarkFigure3Schedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sched.Figure3(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Layout regenerates Figure 4: staggered striping
// with 8 disks, stride 1.
func BenchmarkFigure4Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure4(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Layout regenerates Figure 5: the mixed-media
// staggered layout (Z, X, Y at 40/60/80 mbps) on 12 disks.
func BenchmarkFigure5Layout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure5(13); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Coalescing regenerates Figure 6: time-fragmented
// delivery on disks 1 and 6 with dynamic coalescing at interval 5.
func BenchmarkFigure6Coalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := vdisk.Figure6(8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7LowBandwidth regenerates Figure 7: two half-
// bandwidth objects sharing single disks with buffered halves.
func BenchmarkFigure7LowBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sched.Figure7(3, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection31Analytics regenerates the §3.1 worked numbers:
// S(C_i), wasted bandwidth, and worst-case startup latency for one-
// and two-cylinder fragments on the Sabre drive.
func BenchmarkSection31Analytics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := analytic.FragmentSweep(diskmodel.Sabre, 30, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrideSweep regenerates the §3.2.2 stride analysis: unique
// disks used as k ranges over the farm.
func BenchmarkStrideSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range []int{1, 2, 4, 25, 100} {
			_ = analytic.UniqueDisksUsed(100, k, 4, 25)
		}
	}
}

func benchFigure8(b *testing.B, mean float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Figure8(experiment.Quick, mean, []int{1, 8, 32, 64}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		if last.Striped().Throughput() <= last.VDR().Throughput() {
			b.Fatalf("striping did not win at high load (mean %v)", mean)
		}
	}
}

// BenchmarkFigure8a regenerates Figure 8.a (highly skewed, mean 10).
func BenchmarkFigure8a(b *testing.B) { benchFigure8(b, 10) }

// BenchmarkFigure8b regenerates Figure 8.b (skewed, mean 20).
func BenchmarkFigure8b(b *testing.B) { benchFigure8(b, 20) }

// BenchmarkFigure8c regenerates Figure 8.c (near-uniform, mean 43.5).
func BenchmarkFigure8c(b *testing.B) { benchFigure8(b, 43.5) }

// BenchmarkTable4 regenerates the Table 4 improvement matrix at quick
// scale.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		byMean, err := experiment.RunAll(experiment.Quick, []int{16, 64}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if got := experiment.Table4(byMean).String(); len(got) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFaultRecovery drives the degraded-mode paths of both
// engines: the paper pair at one load point with a disk failing and
// repairing mid-measurement plus a slow-disk window — the fault-path
// cost the fault-free benches above cannot see.
func BenchmarkFaultRecovery(b *testing.B) {
	opts := &experiment.Options{
		Faults: fault.NewPlan().
			FailDiskUntil(7, 900, 1500).
			SlowDisk(3, 1800, 2400),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Sweep(experiment.Quick, []float64{20}, []int{16}, 1, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaggeredK1 sweeps the first-class staggered technique
// (k=1, Algorithms 1+2) through the registry-built generic engine —
// the same path `sweep -technique staggered` runs.
func BenchmarkStaggeredK1(b *testing.B) {
	specs := []experiment.TechSpec{{Key: experiment.TechStaggered, Stride: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Sweep(experiment.Quick, []float64{20}, []int{8, 32}, 1, specs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedFigure8 runs one cache-enabled E19 cell per op: the
// quick geometry under an open Zipf(0.7) stream with a 256 MiB prefix
// cache and an 8-interval batch window — the memory-tier hot path
// (admission, followers, open arrivals) the disk-only benches never
// enter.
func BenchmarkCachedFigure8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.E19Run(0.7, 256, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCluster4 runs one 4-server leastloaded cluster point per
// op — the shared-clock loop, dispatch, arrival injection, and the
// final Merge, end to end (DESIGN.md §13).
func BenchmarkCluster4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunE20Point(4, "leastloaded", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailover4 runs one E21 failover point per op — a 4-server
// leastloaded cluster that loses a member mid-window, including the
// kill drain, re-admission, replica healing, and the recovery-curve
// sampler (DESIGN.md §14).
func BenchmarkFailover4(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunE21Point("leastloaded", 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTertiaryLayout regenerates the §3.2.4 tape-layout
// comparison (E13).
func BenchmarkTertiaryLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.TertiaryLayoutAblation(1)
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].MaterializeSeconds <= rows[0].MaterializeSeconds {
			b.Fatal("sequential tape not slower")
		}
	}
}

// BenchmarkStrideAblation regenerates the k ∈ {1, M, D} contrast of
// §3.2.2 (E14).
func BenchmarkStrideAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.StrideAblation(experiment.Quick, 16, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFragmentSizeAblation regenerates the §3.1 fragment-size
// tradeoff on the Table 3 drive (E15).
func BenchmarkFragmentSizeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.FragmentAblation(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedMediaAblation regenerates the mixed-media contrast of
// §3.1/§3.2: staggered striping vs maximal physical clusters (E16).
func BenchmarkMixedMediaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.MixedMediaAblation(24, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}
