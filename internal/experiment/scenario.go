package experiment

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/mmsim/staggered/internal/cache"
	"github.com/mmsim/staggered/internal/fault"
	"github.com/mmsim/staggered/internal/profiling"
	"github.com/mmsim/staggered/internal/sched"
)

// Options extends a run beyond the paper's clean-room setup: a fault
// plan, the eviction-pressure fallback for exact-fit farms, and the
// cache-tier workload knobs.  The zero value (and nil) is the paper's
// setup.
type Options struct {
	Faults           *fault.Plan
	EvictionPressure bool
	// Cache turns the memory tier on for every run; ZipfSkew and
	// ArrivalsPerHour reshape the workload (see sched.Config).
	Cache           *cache.Spec
	ZipfSkew        float64
	ArrivalsPerHour float64
}

// Apply copies the options onto one run's configuration.
func (o *Options) Apply(cfg *sched.Config) {
	if o == nil {
		return
	}
	cfg.Faults = o.Faults
	cfg.EvictionPressure = o.EvictionPressure
	cfg.Cache = o.Cache
	cfg.ZipfSkew = o.ZipfSkew
	cfg.ArrivalsPerHour = o.ArrivalsPerHour
}

// ScenarioFlags is the flag set cmd/ssim and cmd/sweep share: every
// flag with the same name, default and meaning in both commands.  The
// run-shaping ones reach a run only through Options.
type ScenarioFlags struct {
	Seed           uint64
	ListTechniques bool

	fs                     *flag.FlagSet
	faults, cachePolicy    string
	pressure               bool
	cacheMB, batchWindow   int
	zipf, arrivals         float64
	cpuProfile, memProfile string
}

// runShaping names the flags that become Options fields.
var runShaping = map[string]bool{
	"faults": true, "pressure": true, "cachemb": true, "batchwindow": true,
	"cache": true, "zipf": true, "arrivals": true,
}

// BindScenarioFlags defines the shared flags on fs.
func BindScenarioFlags(fs *flag.FlagSet) *ScenarioFlags {
	s := &ScenarioFlags{fs: fs}
	fs.Uint64Var(&s.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&s.ListTechniques, "list-techniques", false, "list registered techniques and exit")
	fs.StringVar(&s.faults, "faults", "", "fault plan injected into every run (e.g. 'fail:7@600; slow:3@100-400; tert@0-200; wear:0-9@mttf=500,mttr=50,until=3000')")
	fs.BoolVar(&s.pressure, "pressure", false, "enable eviction pressure for exact-fit farms (DESIGN.md §10)")
	fs.IntVar(&s.cacheMB, "cachemb", 0, "prefix-cache budget in MiB (0 = no prefix cache; DESIGN.md §12)")
	fs.IntVar(&s.batchWindow, "batchwindow", 0, "multicast batch window in intervals (0 = no batching)")
	fs.StringVar(&s.cachePolicy, "cache", "", "cache replacement policy: lru or popularity (default popularity)")
	fs.Float64Var(&s.zipf, "zipf", 0, "Zipf popularity skew theta (0 = the geometric -dist catalog)")
	fs.Float64Var(&s.arrivals, "arrivals", 0, "open Poisson arrivals per hour (0 = closed loop)")
	fs.StringVar(&s.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&s.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	return s
}

// Options validates the run-shaping flags and returns them as one
// spec.  Every error names its flag; the commands treat it as a usage
// error.
func (s *ScenarioFlags) Options() (*Options, error) {
	switch {
	case s.cacheMB < 0:
		return nil, fmt.Errorf("-cachemb must be non-negative, got %d", s.cacheMB)
	case s.batchWindow < 0:
		return nil, fmt.Errorf("-batchwindow must be non-negative, got %d", s.batchWindow)
	case s.zipf < 0:
		return nil, fmt.Errorf("-zipf must be non-negative, got %v", s.zipf)
	case s.arrivals < 0:
		return nil, fmt.Errorf("-arrivals must be non-negative, got %v", s.arrivals)
	}
	if err := (&cache.Spec{Policy: s.cachePolicy}).Validate(); err != nil {
		return nil, fmt.Errorf("-cache: %w", err)
	}
	o := &Options{EvictionPressure: s.pressure, ZipfSkew: s.zipf, ArrivalsPerHour: s.arrivals}
	if s.cacheMB > 0 || s.batchWindow > 0 {
		o.Cache = &cache.Spec{BudgetBytes: int64(s.cacheMB) << 20, BatchWindow: s.batchWindow, Policy: s.cachePolicy}
	}
	if s.faults != "" {
		plan, err := fault.Parse(s.faults)
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		o.Faults = plan
	}
	return o, nil
}

// RunShapingSet returns the run-shaping flags given on the command
// line, for a mode that would silently ignore them.
func (s *ScenarioFlags) RunShapingSet() []string {
	var set []string
	s.fs.Visit(func(f *flag.Flag) {
		if runShaping[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// StartProfiles starts the profiles -cpuprofile and -memprofile ask
// for.  The returned stop finishes them: a failed write is reported on
// stderr under prog's name and turns an exit code of 0 into 1.
func (s *ScenarioFlags) StartProfiles(prog string) (stop func(code *int), err error) {
	finish, err := profiling.Start(s.cpuProfile, s.memProfile)
	if err != nil {
		return nil, err
	}
	return func(code *int) {
		if err := finish(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
			if *code == 0 {
				*code = 1
			}
		}
	}, nil
}

// PrintTechniques lists the technique registry, one technique a line:
// the -list-techniques output.
func PrintTechniques(w io.Writer) {
	for _, ti := range sched.Techniques() {
		fmt.Fprintf(w, "%-10s %s — %s\n", ti.Key, ti.Display, ti.Summary)
	}
}
