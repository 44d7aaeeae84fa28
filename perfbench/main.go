// Command perfbench is the repository's benchmark.  It runs one named
// workload of the simulator through its public entry points
// (sched.NewEngineFor with Engine.StepOne/Snapshot, cluster.New with
// Sim.Run), repeating the workload for a fixed wall-clock budget,
// checks every replicate's simulated output, and prints its metrics:
// the end-to-end metrics of BENCHMARK.json from an untraced run, or
// with -trace 1 the per-layer metrics from a run under a CPU profile,
// an event tracer and a per-step timer.  The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload hotset --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all
//	bash perfbench/run.sh --describe    # print BENCHMARK.json
//
// It exits 1 when an output check fails and 2 on a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/mmsim/staggered/internal/profiling"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "wall-clock seconds to measure")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for a traced run's CPU profile")
	describe := fs.Bool("describe", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		b, err := describeJSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	recorded, err := recordedDigests()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	code := 0
	for _, w := range selected {
		m := measurement{
			w:       w,
			seed:    *seed,
			budget:  time.Duration(*seconds * float64(time.Second)),
			traced:  *trace == 1,
			scratch: *scratch,
			want:    recorded[w.name],
		}
		out, err := m.run(stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !out.Correct {
			code = 1
		}
	}
	return code
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measurement is one invocation on one workload.
type measurement struct {
	w       workload
	seed    uint64
	budget  time.Duration
	traced  bool
	scratch string
	want    string // recorded digest at defaultSeed
}

// repeat runs replicates until the budget is spent (at least one).
func (m *measurement) repeat(budget time.Duration, tr *tracer) ([]*replicate, error) {
	var reps []*replicate
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < budget {
		var before time.Duration
		if tr == nil {
			before = calibrate()
		}
		rep, err := runPlan(m.w.build(m.seed, false), tr)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			rep.cal = before + calibrate()
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func (m *measurement) run(stdout io.Writer) (result, error) {
	env := map[string]any{
		"go":         runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       m.seed,
		"workload":   m.w.name,
		"trace":      m.traced,
	}
	var (
		values map[string]float64
		info   map[string]float64 // printed, not part of the result
		specs  []metricSpec
		reps   []*replicate
	)
	if !m.traced {
		var err error
		if reps, err = m.repeat(m.budget, nil); err != nil {
			return result{}, err
		}
		values, specs = endToEndValues(reps), endToEnd
		info = hostValues(reps)
	} else {
		// An untraced third of the budget is the base of trace.overhead.
		base, err := m.repeat(m.budget/3, nil)
		if err != nil {
			return result{}, err
		}
		traced, samples, tr, err := m.tracedRun(m.budget - m.budget/3)
		if err != nil {
			return result{}, err
		}
		values, specs = perLayerValues(base, traced, tr, shareProfile(samples)), perLayer
		env["trace_overhead"] = values["trace.overhead"]
		reps = append(base, traced...)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var failures []string
	dig := reps[0].digest
	for i, r := range reps {
		res.Attempted += r.requests()
		res.Failed += r.unserved()
		failures = append(failures, r.failures...)
		if r.digest != dig {
			failures = append(failures, fmt.Sprintf("replicate %d digest %s != replicate 0 digest %s", i, r.digest, dig))
		}
	}
	if m.seed == defaultSeed && dig != m.want {
		failures = append(failures, fmt.Sprintf("digest %s at seed %d, recorded %q", dig, m.seed, m.want))
	}
	if len(failures) > 0 {
		res.Correct, res.Failed = false, res.Attempted
	}
	env["replicates"] = len(reps)
	env["digest"] = dig
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", envLine)
	for _, f := range failures {
		fmt.Fprintf(stdout, "CHECK FAILED %s: %s\n", m.w.name, f)
	}
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(stdout, "%-30s %.6g ratio (%d of %d simulated requests unserved)\n",
		"error_rate", errRate, res.Failed, res.Attempted)
	for _, s := range specs {
		v := values[s.Name]
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(stdout, "%-30s %.6g %s\n", s.Name, v, s.Unit)
	}
	for _, s := range perLayer {
		if v, ok := info[s.Name]; ok {
			fmt.Fprintf(stdout, "%-30s %.6g %s (per-layer, shown for reference)\n", s.Name, v, s.Unit)
		}
	}
	return res, nil
}

// tracedRun steps replicates under a CPU profile and the tracer.
// profiling.Start runs before any engine is built, because engines
// latch whether to label their interval phases at construction.
func (m *measurement) tracedRun(budget time.Duration) ([]*replicate, []profSample, *tracer, error) {
	if err := os.MkdirAll(m.scratch, 0o755); err != nil {
		return nil, nil, nil, err
	}
	path := filepath.Join(m.scratch, "cpu-"+m.w.name+".pprof")
	stop, err := profiling.Start(path, "")
	if err != nil {
		return nil, nil, nil, err
	}
	tr := newTracer()
	reps, runErr := m.repeat(budget, tr)
	tr.label(labelHarness)
	if err := stop(); err != nil || runErr != nil {
		return nil, nil, nil, errors.Join(runErr, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	samples, err := parseCPUProfile(raw)
	if err != nil {
		return nil, nil, nil, err
	}
	return reps, samples, tr, nil
}
