package main

import (
	"math"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/metrics"
	"github.com/mmsim/staggered/internal/sched"
	"github.com/mmsim/staggered/internal/tertiary"
)

// Every configuration is written out here field by field instead of
// taken from the program's own presets (experiment.ScaleConfig,
// sched.Table3Config, ...), so that re-basing a preset or flipping a
// default cannot silently change what the benchmark measures.
// Workers and Shards stay unset: every run steps on one goroutine.

// workload is one named input set of the benchmark.  build returns
// the simulations one replicate runs, in order; tiny shrinks them to
// test size.
type workload struct {
	name  string
	why   string
	build func(seed uint64, tiny bool) plan
}

// plan is what one replicate simulates: engine runs one after another,
// or one cluster run.
type plan struct {
	engines []engineRun
	cluster *cluster.Config
	// table4 marks a plan whose engine runs are paperPoints in order,
	// so the replicate can be scored against the paper's Table 4.
	table4 bool
}

type engineRun struct {
	technique string
	cfg       sched.Config
}

var workloads = []workload{
	{
		name: "hotset",
		why:  "scale geometry x2000 with DistMean 20: every station queues on a few hot objects, so admission scans a 40k queue per interval; the regime of cmd/bench BENCH_5..9",
		build: func(seed uint64, tiny bool) plan {
			return plan{engines: []engineRun{{"striped", scaleGeometry(seed, tiny, false)}}}
		},
	},
	{
		name: "proportional",
		why:  "same engine and geometry with DistMean scaled to the catalog: the farm stays ~0.96 busy, so cost is per display (admits, release drains, FirstDisk, draws)",
		build: func(seed uint64, tiny bool) plan {
			return plan{engines: []engineRun{{"striped", scaleGeometry(seed, tiny, true)}}}
		},
	},
	{
		name: "fleet",
		why:  "4-server cluster, popularity dispatch, open Zipf(1.1) arrivals, prefix cache and batching, one member killed and revived: the only run through cluster, cache and failover",
		build: func(seed uint64, tiny bool) plan {
			c := fleetConfig(seed, tiny)
			return plan{cluster: &c}
		},
	},
	{
		name: "paper",
		why:  "Table 3 farm at Table 4's 24 points (stations x means x striped/vdr): the only run through VDR and a tertiary-bound regime, and the only one with reference results",
		build: func(seed uint64, tiny bool) plan {
			p := plan{table4: !tiny}
			for _, pt := range paperPoints(tiny) {
				p.engines = append(p.engines, engineRun{pt.technique, table3Config(seed, pt.stations, pt.mean, tiny)})
			}
			return p
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaleFactor multiplies the quick geometry (50 disks, 40 objects, 20
// stations) for hotset and proportional.  With 60·factor cylinders
// per disk the whole catalog is resident after preload.
const scaleFactor = 2000

func scaleGeometry(seed uint64, tiny, proportional bool) sched.Config {
	f, warm, measure := scaleFactor, 200, 1000
	if tiny {
		f, warm, measure = 2, 50, 200
	}
	mean := 20.0
	if proportional {
		// An interval costs ~10x hotset's here, so a shorter window
		// keeps replicates short enough for a run to hold dozens.
		mean = 20 * float64(f)
		if !tiny {
			warm, measure = 100, 300
		}
	}
	return sched.Config{
		D:                 50 * f,
		K:                 5,
		CapacityFragments: 60 * f,
		Objects:           40 * f,
		Subobjects:        30,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Spec{Name: "sim-tertiary", Bandwidth: 40e6, Reposition: 5},
		TapeLayout:        tertiary.DiskMatched,
		Stations:          20 * f,
		DistMean:          mean,
		Seed:              seed,
		WarmupIntervals:   warm,
		MeasureIntervals:  measure,
		PlaceRetryLimit:   32,
	}
}

// Fleet shape: fleetServers members, each the quick geometry times
// fleetFactor with half its catalog on disk and a tertiary device
// fleetFactor times as fast (so its staging load stays that of a quick
// server instead of saturating), offered 1500 arrivals per hour per
// quick-sized server (below the survivors' ceiling while one member is
// down).  fleetVictim is killed a third into the measurement window
// and revived two thirds in.
const (
	fleetServers = 4
	fleetFactor  = 100
	fleetVictim  = 1
)

func fleetConfig(seed uint64, tiny bool) cluster.Config {
	f, warm, measure := fleetFactor, 600, 6000
	if tiny {
		f, warm, measure = 1, 300, 900
	}
	base := sched.Config{
		D:                 50 * f,
		K:                 5,
		CapacityFragments: 60,
		Objects:           40 * f,
		Subobjects:        30,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Spec{Name: "sim-tertiary", Bandwidth: 40e6 * float64(f), Reposition: 5},
		TapeLayout:        tertiary.DiskMatched,
		Stations:          64 * f,
		DistMean:          20,
		Seed:              seed,
		WarmupIntervals:   warm,
		MeasureIntervals:  measure,
		PlaceRetryLimit:   32,
		ZipfSkew:          1.1,
		ArrivalsPerHour:   1500 * float64(f) * fleetServers,
		Cache: &cache.Spec{
			BudgetBytes: int64(f) << 28, // 256 MiB per quick-sized server
			BatchWindow: 8,
		},
	}
	return cluster.Config{
		Servers:    fleetServers,
		Technique:  "striped",
		Dispatch:   "popularity",
		Base:       base,
		ServerPlan: fault.NewPlan().FailServerUntil(fleetVictim, warm+measure/3, warm+2*measure/3),
		HealBudget: 2 * f,
	}
}

// paperPoint is one cell of Table 4's grid, for one technique.
type paperPoint struct {
	technique string
	stations  int
	mean      float64
}

// paperTable4 is the paper's Table 4: percentage throughput
// improvement of simple striping over virtual data replication, by
// stations (rows) and distribution mean (columns 10, 20, 43.5).
var (
	paperStations = []int{16, 64, 128, 256}
	paperMeans    = []float64{10, 20, 43.5}
	paperTable4   = [4][3]float64{
		{5.10, 2.15, 114.75},
		{11.06, 131.86, 508.79},
		{52.67, 350.73, 469.94},
		{126.10, 602.49, 413.10},
	}
)

// paperPoints lists the runs of the paper workload: for each station
// count and mean, striped then vdr.
func paperPoints(tiny bool) []paperPoint {
	stations, means := paperStations, paperMeans
	if tiny {
		stations, means = stations[:1], means[:1]
	}
	var pts []paperPoint
	for _, st := range stations {
		for _, m := range means {
			pts = append(pts, paperPoint{"striped", st, m}, paperPoint{"vdr", st, m})
		}
	}
	return pts
}

// table3Config is the paper's §4.1 configuration: 1000 disks at 20
// mbps, 2000 objects of 3000 subobjects at M = 5, one 1.512 MB
// cylinder per fragment, a 40 mbps tertiary device.
func table3Config(seed uint64, stations int, mean float64, tiny bool) sched.Config {
	warm, measure := 20000, 60000
	if tiny {
		warm, measure = 1000, 6000
	}
	return sched.Config{
		D:                 1000,
		K:                 5,
		CapacityFragments: 3000,
		Objects:           2000,
		Subobjects:        3000,
		M:                 5,
		BDisk:             20e6,
		FragmentBytes:     1512000,
		Tertiary:          tertiary.Spec{Name: "sim-tertiary", Bandwidth: 40e6, Reposition: 5},
		TapeLayout:        tertiary.DiskMatched,
		Stations:          stations,
		DistMean:          mean,
		Seed:              seed,
		WarmupIntervals:   warm,
		MeasureIntervals:  measure,
		PlaceRetryLimit:   32,
	}
}

// table4Error is the mean absolute difference, in percentage points,
// between the simulated and the paper's Table 4 improvements.  runs
// are the paper workload's results in paperPoints order.
func table4Error(runs []sched.Result) float64 {
	var sum float64
	n := 0
	for i := range paperStations {
		for j := range paperMeans {
			k := 2 * (i*len(paperMeans) + j)
			imp := metrics.Improvement(runs[k], runs[k+1])
			sum += math.Abs(imp - paperTable4[i][j])
			n++
		}
	}
	return sum / float64(n)
}
