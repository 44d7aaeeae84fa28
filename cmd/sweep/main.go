// Command sweep regenerates the paper's evaluation: the three graphs
// of Figure 8 (throughput against the number of display stations for
// the highly-skewed, skewed, and uniform access distributions) and
// Table 4 (percentage improvement of simple striping over virtual
// data replication).
//
// Usage:
//
//	sweep                         # full Table 3 scale, all figures + Table 4
//	sweep -scale quick            # reduced scale (seconds instead of minutes)
//	sweep -scale 10x              # scale-mode trajectory up to 10x quick geometry
//	sweep -scale 100x             # scale-mode trajectory up to 100x quick geometry
//	sweep -scale 1000x            # 1000x trajectory (50k disks, 20k stations)
//	sweep -scale 10000x           # 10000x trajectory (500k disks, 200k stations)
//	sweep -dist 20                # one distribution only
//	sweep -stations 16,64,128,256 # restrict the station sweep
//	sweep -csv                    # machine-readable output
//	sweep -technique staggered -k 1  # sweep one registered technique
//	sweep -list-techniques        # show the technique registry
//	sweep -faults 'fail:7@600'    # inject a fault plan into every run
//	sweep -e18                    # availability experiment (EXPERIMENTS.md E18)
//	sweep -e19                    # cache-size sweep (EXPERIMENTS.md E19)
//	sweep -e20                    # cluster scaling sweep (EXPERIMENTS.md E20)
//	sweep -e21                    # server-failover sweep (EXPERIMENTS.md E21)
//	sweep -servers 1,2,4 -dispatch popularity  # custom cluster grid
//	sweep -cachemb 256 -batchwindow 8   # memory tier on every run (DESIGN.md §12)
//	sweep -zipf 0.7 -arrivals 6000      # open Zipf workload instead of the closed loop
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/experiment"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/workload"
)

func main() {
	os.Exit(run())
}

// run holds the program body so deferred cleanup (the profile
// writers) executes before the process exits.
func run() (code int) {
	sc := experiment.BindScenarioFlags(flag.CommandLine)
	scaleFlag := flag.String("scale", "full", "experiment scale: full (Table 3), quick, or a scale-mode trajectory (10x, 100x, 1000x)")
	dist := flag.Float64("dist", 0, "run a single distribution mean (10, 20, or 43.5); 0 = all")
	stationsFlag := flag.String("stations", "", "comma-separated station counts; empty = paper sweep 1..256")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	techFlag := flag.String("technique", "", "comma-separated technique keys (see -list-techniques); empty = paper pair striped,vdr")
	stride := flag.Int("k", 0, "stride k for the staggered technique (0 = technique default)")
	e18Flag := flag.Bool("e18", false, "run the E18 availability experiment and exit")
	e19Flag := flag.Bool("e19", false, "run the E19 cache-size sweep and exit")
	e20Flag := flag.Bool("e20", false, "run the E20 cluster-scaling sweep and exit")
	e21Flag := flag.Bool("e21", false, "run the E21 server-failover sweep and exit")
	serversFlag := flag.String("servers", "", "comma-separated fleet sizes for a cluster grid (implies -e20 over those sizes)")
	dispatchFlag := flag.String("dispatch", "", "restrict the cluster grid to one dispatch policy (roundrobin, leastloaded, popularity)")
	flag.Parse()

	if sc.ListTechniques {
		experiment.PrintTechniques(os.Stdout)
		return 0
	}
	opts, err := sc.Options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 2
	}
	specs, err := parseTechniques(*techFlag, *stride)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 2
	}
	stations, err := parseCounts("-stations", *stationsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 2
	}
	scale, factors, err := parseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 2
	}
	servers, policies, err := parseGrid(*serversFlag, *dispatchFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 2
	}

	// The experiment modes and the scale-mode trajectory fix their own
	// configurations, so a run-shaping flag would be silently ignored.
	mode := ""
	switch {
	case *e18Flag:
		mode = "-e18"
	case *e19Flag:
		mode = "-e19"
	case *e21Flag:
		mode = "-e21"
	case *e20Flag:
		mode = "-e20"
	case *serversFlag != "":
		mode = "-servers"
	case factors != nil:
		mode = "-scale " + *scaleFlag
	}
	if set := sc.RunShapingSet(); mode != "" && len(set) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %s ignores %s\n", mode, strings.Join(set, ", "))
		return 2
	}

	stopProfiles, err := sc.StartProfiles("sweep")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	defer stopProfiles(&code)

	var out string
	switch mode {
	case "-e18":
		var points []experiment.E18Point
		if points, err = experiment.E18(sc.Seed); err == nil {
			out = experiment.E18Render(points)
		}
	case "-e19":
		var points []experiment.E19Point
		if points, err = experiment.E19(sc.Seed); err == nil {
			out = experiment.E19Render(points)
		}
	case "-e21":
		var points []experiment.FailoverPoint
		if points, err = experiment.E21(sc.Seed); err == nil && *csv {
			out = experiment.E21CSV(points)
		} else if err == nil {
			out = experiment.RenderE21(points)
		}
	case "-e20", "-servers":
		var points []experiment.ClusterPoint
		if points, err = experiment.E20Grid(servers, policies, sc.Seed); err == nil && *csv {
			out = experiment.E20CSV(points)
		} else if err == nil {
			out = experiment.RenderE20(points)
		}
	case "":
		return runFigures(scale, *dist, stations, sc.Seed, specs, opts, *csv)
	default: // the scale-mode trajectory
		var points []experiment.ScalePoint
		if points, err = experiment.ScaleSweep(factors, sc.Seed); err == nil {
			out = renderScale(*scaleFlag, points, *csv)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	fmt.Print(out)
	return 0
}

// runFigures runs the paper's evaluation: the Figure 8 graphs of the
// selected distributions and, for the default technique pair over all
// three, Table 4.
func runFigures(scale experiment.Scale, dist float64, stations []int, seed uint64, specs []experiment.TechSpec, opts *experiment.Options, csv bool) int {
	means := workload.PaperMeans
	if dist != 0 {
		means = []float64{dist}
	}
	byMean, err := experiment.Sweep(scale, means, stations, seed, specs, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		return 1
	}
	starved := 0
	for _, mean := range means {
		pts := byMean[mean]
		starved += experiment.Starved(pts)
		if csv {
			if specs == nil {
				fmt.Print(pointsCSV(mean, pts))
			} else {
				fmt.Print(techniquesCSV(mean, pts))
			}
		} else {
			fmt.Println(experiment.Figure8Render(mean, pts))
		}
	}

	// Table 4 compares the paper pair; it only applies to the
	// default sweep.
	if dist == 0 && specs == nil {
		tbl := experiment.Table4(byMean)
		fmt.Println("Table 4: percentage improvement in throughput (displays per hour)")
		fmt.Println("with simple striping as compared to virtual data replication.")
		if csv {
			fmt.Print(tbl.CSV())
		} else {
			fmt.Println(tbl.String())
		}
	}
	if starved > 0 {
		fmt.Fprintf(os.Stderr,
			"sweep: warning: %d materializations starved at the Place retry cap — throughput for those configurations is not meaningful (raise capacity, add -pressure, or use k >= M; see DESIGN.md §10)\n",
			starved)
	}
	return 0
}

// parseScale reads -scale: the paper-figure fidelity, or for a
// scale-mode trajectory the quick-geometry factors grown up to the
// requested ceiling (non-nil only then).
func parseScale(s string) (experiment.Scale, []int, error) {
	switch s {
	case "full":
		return experiment.Full, nil, nil
	case "quick":
		return experiment.Quick, nil, nil
	case "10x":
		return 0, []int{1, 2, 5, 10}, nil
	case "100x":
		return 0, []int{1, 2, 5, 10, 20, 50, 100}, nil
	case "1000x", "1000":
		return 0, []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}, nil
	case "10000x":
		return 0, []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}, nil
	}
	return 0, nil, fmt.Errorf("unknown scale %q", s)
}

// parseGrid reads the E20 cluster grid (EXPERIMENTS.md E20): fleet
// sizes from -servers (default 1,2,4,8) crossed with the dispatch
// policies, restricted to one by -dispatch when given.
func parseGrid(serversFlag, dispatchFlag string) ([]int, []string, error) {
	servers := experiment.E20Servers
	if serversFlag != "" {
		var err error
		if servers, err = parseCounts("-servers", serversFlag); err != nil {
			return nil, nil, err
		}
	}
	policies := cluster.Policies()
	if dispatchFlag == "" {
		return servers, policies, nil
	}
	for _, p := range policies {
		if p == dispatchFlag {
			return servers, []string{p}, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown dispatch policy %q (have %v)", dispatchFlag, policies)
}

// renderScale formats the scale-mode trajectory, which reports the
// wall-clock cost of each point.
func renderScale(mode string, points []experiment.ScalePoint, csv bool) string {
	if csv {
		tbl := &metrics.Table{Header: []string{
			"factor", "disks", "stations", "displays", "wall_seconds", "intervals_per_second", "ns_per_display", "heap_alloc_bytes",
		}}
		for _, p := range points {
			tbl.AddRow(
				fmt.Sprintf("%d", p.Factor),
				fmt.Sprintf("%d", p.D),
				fmt.Sprintf("%d", p.Stations),
				fmt.Sprintf("%d", p.Displays),
				fmt.Sprintf("%.4f", p.WallSeconds),
				fmt.Sprintf("%.0f", p.IntervalsSec),
				fmt.Sprintf("%.0f", p.NsPerDisplay),
				fmt.Sprintf("%d", p.HeapAllocBytes),
			)
		}
		return tbl.CSV()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Scale-mode trajectory (%s): quick geometry grown by factor\n", mode)
	fmt.Fprintf(&b, "%7s %7s %9s %9s %9s %13s %13s\n", "factor", "disks", "stations", "displays", "wall(s)", "intervals/s", "ns/display")
	for _, p := range points {
		fmt.Fprintf(&b, "%7d %7d %9d %9d %9.4f %13.0f %13.0f\n",
			p.Factor, p.D, p.Stations, p.Displays, p.WallSeconds, p.IntervalsSec, p.NsPerDisplay)
	}
	return b.String()
}

// parseCounts reads a comma-separated list of positive counts; empty
// selects the caller's default.
func parseCounts(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%s: bad count %q", name, p)
		}
		out = append(out, v)
	}
	return out, nil
}

func pointsCSV(mean float64, pts []experiment.Point) string {
	tbl := &metrics.Table{Header: []string{
		"mean", "stations", "striped_per_hour", "vdr_per_hour", "improvement_pct",
		"striped_latency_s", "vdr_latency_s", "vdr_unique_residents",
	}}
	for _, p := range pts {
		striped, vdr := p.Striped(), p.VDR()
		tbl.AddRow(
			fmt.Sprintf("%v", mean),
			fmt.Sprintf("%d", p.Stations),
			fmt.Sprintf("%.2f", striped.Throughput()),
			fmt.Sprintf("%.2f", vdr.Throughput()),
			fmt.Sprintf("%.2f", p.Improvement()),
			fmt.Sprintf("%.2f", striped.Latency.Mean()),
			fmt.Sprintf("%.2f", vdr.Latency.Mean()),
			fmt.Sprintf("%d", vdr.UniqueResidents),
		)
	}
	return tbl.CSV()
}

// techniquesCSV is the long-form CSV for arbitrary technique
// selections: one row per (point, technique).
func techniquesCSV(mean float64, pts []experiment.Point) string {
	tbl := &metrics.Table{Header: []string{
		"mean", "stations", "technique", "name", "per_hour", "latency_s", "unique_residents",
		"requests", "degraded_hiccups", "aborted_displays", "rejected_degraded", "starved_materializations",
		"served_from_cache", "batched_followers", "cache_hit_bytes", "open_rejected",
	}}
	for _, p := range pts {
		for i, label := range p.Techniques {
			r := p.Runs[i]
			tbl.AddRow(
				fmt.Sprintf("%v", mean),
				fmt.Sprintf("%d", p.Stations),
				label,
				r.Technique,
				fmt.Sprintf("%.2f", r.Throughput()),
				fmt.Sprintf("%.2f", r.Latency.Mean()),
				fmt.Sprintf("%d", r.UniqueResidents),
				fmt.Sprintf("%d", r.Requests),
				fmt.Sprintf("%d", r.DegradedHiccups),
				fmt.Sprintf("%d", r.AbortedDisplays),
				fmt.Sprintf("%d", r.RejectedDegraded),
				fmt.Sprintf("%d", r.StarvedMaterializations),
				fmt.Sprintf("%d", r.ServedFromCache),
				fmt.Sprintf("%d", r.BatchedFollowers),
				fmt.Sprintf("%d", r.CacheHitBytes),
				fmt.Sprintf("%d", r.OpenRejected),
			)
		}
	}
	return tbl.CSV()
}

// parseTechniques turns the -technique flag into sweep specs.  An
// empty flag returns nil, selecting the paper's default pair.
func parseTechniques(s string, stride int) ([]experiment.TechSpec, error) {
	if s == "" {
		if stride != 0 {
			return nil, fmt.Errorf("-k requires -technique staggered")
		}
		return nil, nil
	}
	var specs []experiment.TechSpec
	strideUsed := false
	for _, part := range strings.Split(s, ",") {
		key := strings.TrimSpace(part)
		if _, ok := sched.TechniqueByKey(key); !ok {
			return nil, fmt.Errorf("-technique: unknown technique %q (have %s)", key, strings.Join(sched.TechniqueKeys(), ", "))
		}
		spec := experiment.TechSpec{Key: key}
		if key == experiment.TechStaggered {
			spec.Stride = stride
			strideUsed = true
		}
		specs = append(specs, spec)
	}
	if stride != 0 && !strideUsed {
		return nil, fmt.Errorf("-k requires -technique staggered")
	}
	return specs, nil
}
