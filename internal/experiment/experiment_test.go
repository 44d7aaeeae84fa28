package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/tertiary"
	"github.com/mmsim/staggered/internal/workload"
)

func TestBaseConfigScales(t *testing.T) {
	full := BaseConfig(Full, 64, 20, 1)
	if full.D != 1000 || full.Objects != 2000 {
		t.Fatalf("full scale config wrong: %+v", full)
	}
	quick := BaseConfig(Quick, 64, 20, 1)
	if quick.D != 50 || quick.Objects != 40 {
		t.Fatalf("quick scale config wrong: %+v", quick)
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := quick.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure8Quick(t *testing.T) {
	pts, err := Figure8(Quick, 10, []int{1, 8, 32}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Striped().Hiccups != 0 || p.VDR().Hiccups != 0 {
			t.Fatalf("hiccups at %d stations", p.Stations)
		}
		if p.Striped().Throughput() <= 0 {
			t.Fatalf("no striped throughput at %d stations", p.Stations)
		}
	}
	// The paper's central result at high load.
	last := pts[len(pts)-1]
	if last.Striped().Throughput() <= last.VDR().Throughput() {
		t.Fatalf("striping (%v) did not beat VDR (%v) at 32 stations",
			last.Striped().Throughput(), last.VDR().Throughput())
	}
	// Throughput grows with offered load.
	if pts[1].Striped().Throughput() < pts[0].Striped().Throughput() {
		t.Fatal("striped throughput fell from 1 to 8 stations")
	}
}

func TestFigure8Deterministic(t *testing.T) {
	a, err := Figure8(Quick, 20, []int{8}, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure8(Quick, 20, []int{8}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Striped().Displays != b[0].Striped().Displays || a[0].VDR().Displays != b[0].VDR().Displays {
		t.Fatal("figure 8 runs not reproducible")
	}
}

// TestParallelismInvariant pins the pool's determinism contract for
// every pooled entry point: results must not depend on how many
// workers execute them.  A serial run (GOMAXPROCS=1) and a parallel
// run must be deeply equal, every field of every point.
func TestParallelismInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (any, error)
	}{
		{"RunAll", func() (any, error) { return RunAll(Quick, []int{1, 8}, 9) }},
		{"E20Grid", func() (any, error) { return E20Grid([]int{1, 2}, cluster.Policies(), 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			serial, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(4)
			parallel, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("results depend on worker count:\n  serial:   %+v\n  parallel: %+v", serial, parallel)
			}
		})
	}
}

// TestForEach pins the pool helper: every index runs exactly once at
// any worker count, n = 0 is a no-op, and the error reported is the
// lowest failing index's whatever the scheduling.
func TestForEach(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		const n = 100
		var calls [n]atomic.Int32
		if err := forEach(n, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
			}
		}
		if err := forEach(0, func(int) error {
			t.Error("fn called for n = 0")
			return nil
		}); err != nil {
			t.Fatalf("n = 0: %v", err)
		}
		for rep := 0; rep < 20; rep++ {
			err := forEach(n, func(i int) error {
				if i%7 == 3 { // 3, 10, 17, ...
					return fmt.Errorf("job %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "job 3" {
				t.Fatalf("GOMAXPROCS=%d: got error %v, want job 3", procs, err)
			}
		}
	}
}

func TestFigure8RenderAndTable4(t *testing.T) {
	byMean := map[float64][]Point{}
	for _, mean := range workload.PaperMeans {
		pts, err := Figure8(Quick, mean, []int{16, 64}, 1)
		if err != nil {
			t.Fatal(err)
		}
		byMean[mean] = pts
	}
	fig := Figure8Render(10, byMean[10])
	for _, want := range []string{"Figure 8", "highly skewed", "simple striping", "virtual replication"} {
		if !strings.Contains(fig, want) {
			t.Errorf("figure missing %q:\n%s", want, fig)
		}
	}
	tbl := Table4(byMean).String()
	for _, want := range []string{"# Display Stations", "10 (highly skewed)", "43.5 (uniform)", "16", "64", "%"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table 4 missing %q:\n%s", want, tbl)
		}
	}
	// Station counts not run render as "-".
	if !strings.Contains(tbl, "-") {
		t.Errorf("missing rows not dashed:\n%s", tbl)
	}
}

func TestStrideAblation(t *testing.T) {
	rows, err := StrideAblation(Quick, 16, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var k1, kD StrideResult
	for _, r := range rows {
		switch r.Stride {
		case 1:
			k1 = r
		case 50:
			kD = r
		}
	}
	// §3.2.2: pinning objects to one cluster (k=D) makes colliding
	// requests wait far longer than the rotating layouts.
	if kD.WorstWaitS <= k1.WorstWaitS {
		t.Errorf("k=D worst wait (%v s) not above k=1 (%v s)", kD.WorstWaitS, k1.WorstWaitS)
	}
	for _, r := range rows {
		if r.Run.Hiccups != 0 {
			t.Errorf("%s: hiccups %d", r.Label, r.Run.Hiccups)
		}
	}
}

func TestFragmentAblation(t *testing.T) {
	rows, err := FragmentAblation(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[3].EffectiveBandwidth <= rows[0].EffectiveBandwidth {
		t.Fatal("bandwidth not improving with fragment size")
	}
	if rows[3].WorstLatencySecs <= rows[0].WorstLatencySecs {
		t.Fatal("latency not growing with fragment size")
	}
}

func TestMixedMediaAblation(t *testing.T) {
	rows, err := MixedMediaAblation(24, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	st, naive := rows[0].Run, rows[1].Run
	if st.Hiccups != 0 || naive.Hiccups != 0 {
		t.Fatalf("hiccups: %d / %d", st.Hiccups, naive.Hiccups)
	}
	// §3.1: sizing clusters for the largest media type sacrifices the
	// bandwidth of unused disks; staggered striping must deliver more
	// displays from the same farm.
	if st.Displays <= naive.Displays {
		t.Fatalf("staggered (%d displays) did not beat naive clustering (%d)",
			st.Displays, naive.Displays)
	}
}

func TestTertiaryLayoutAblation(t *testing.T) {
	rows, err := TertiaryLayoutAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	matched, seq := rows[0], rows[1]
	if matched.Layout != tertiary.DiskMatched || seq.Layout != tertiary.Sequential {
		t.Fatal("row order wrong")
	}
	if seq.MaterializeSeconds <= matched.MaterializeSeconds {
		t.Fatal("sequential tape not slower")
	}
	if seq.WastedTimeFraction < 0.85 {
		t.Fatalf("sequential waste = %v, want repositioning to dominate", seq.WastedTimeFraction)
	}
	if matched.WastedTimeFraction != 0 {
		t.Fatalf("matched tape wasted %v", matched.WastedTimeFraction)
	}
	// The layout choice is visible in end-to-end throughput on a
	// miss-heavy workload.
	if matched.ThroughputDisplays <= seq.ThroughputDisplays {
		t.Fatalf("matched layout (%v/hr) not above sequential (%v/hr)",
			matched.ThroughputDisplays, seq.ThroughputDisplays)
	}
}
