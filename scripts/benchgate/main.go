// Command benchgate is the performance-regression gate.  It measures
// the working tree and a base commit on the same host, alternately,
// and fails when the working tree is slower than the base by more than
// a bound.  No stored reference numbers are involved, so the verdict
// does not depend on the machine the gate runs on.
//
// Usage, from anywhere inside the repository:
//
//	go run ./scripts/benchgate HEAD~1
//
// The base is extracted with `git archive <base> | tar -x` into a
// temporary directory; the repository's .git is only read.  Then, in
// pairs whose order alternates:
//
//   - every workload of BENCHMARK.json runs through
//     `bash perfbench/run.sh --seed 1 --trace 0` in both trees, each
//     tree with its own CARGO_TARGET_DIR.  The gate fails when any run
//     reports correct:false, when the working tree's failed/attempted
//     share is higher than the base's, or when the median of an
//     end_to_end metric is worse than the base's median by more than
//     that metric's bound, in the direction of its better field;
//   - the Go benchmarks in goBenches run in both trees, and the gate
//     fails when a median ns/op is more than goBound above the base's.
//     A benchmark the base does not define is printed as not compared.
//
// It prints one row per workload and metric and per Go benchmark, and
// exits 0 when every row passes, 1 when one fails or a run breaks, and
// 2 on a usage error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The host the gate runs on may be shared: the same binary can run
// nearly twice as slow for phases lasting seconds.  So the two sides of a pair
// run back to back, the side that runs first alternates between
// pairs, and a Go benchmark is sampled often and briefly, so that both
// sides see the same mix of phases.
const (
	// pairs is the number of base/change pairs per perfbench workload.
	pairs = 7
	// seconds is perfbench's --seconds for one run.
	seconds = "2"
	// goPairs is the number of base/change pairs per Go benchmark.
	goPairs = 15
	// benchtime is go test's -benchtime for one run of a benchmark.
	benchtime = "0.1s"
	// goBound is the largest tolerated rise of a Go benchmark's
	// median ns/op over the base's.
	goBound = 0.20
)

// goBenches are the Go benchmarks the gate compares, by package.
var goBenches = []struct {
	pkg   string
	names []string
}{
	{".", []string{
		"BenchmarkFigure8a", "BenchmarkFigure8b", "BenchmarkFigure8c", "BenchmarkTable4",
		"BenchmarkFaultRecovery", "BenchmarkStaggeredK1", "BenchmarkCachedFigure8",
		"BenchmarkCluster4", "BenchmarkFailover4",
	}},
	{"./internal/sim", []string{"BenchmarkCalendarSchedule", "BenchmarkCalendarCancel"}},
	{"./internal/core", []string{"BenchmarkStorePreload"}},
	{"./internal/sched", []string{"BenchmarkVDRWarmStart"}},
}

// spec is what the gate reads of BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is perfbench's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// row is one line of the verdict table.
type row struct {
	group, name    string
	parent, change float64
	bound          float64
	verdict        string
	fail           bool
}

// tree is one side of the comparison.
type tree struct {
	name, dir, target string
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate <base commit>")
		return 2
	}
	start := time.Now()
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: not in a git repository: %v\n", err)
		return 2
	}
	root := strings.TrimSpace(string(out))
	tmp, err := os.MkdirTemp("", "benchgate")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	base := tree{"parent", filepath.Join(tmp, "base"), filepath.Join(tmp, "build-parent")}
	change := tree{"change", root, filepath.Join(tmp, "build-change")}
	if err := extract(root, args[0], base.dir); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 2
	}
	rows, err := measure(base, change, tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}
	failed := printRows(os.Stdout, rows)
	verdict := "PASS"
	if failed > 0 {
		verdict = fmt.Sprintf("FAIL (%d rows)", failed)
	}
	fmt.Printf("benchgate: %s against %s, %d perfbench and %d Go-benchmark pairs, %s wall\n",
		verdict, args[0], pairs, goPairs, time.Since(start).Round(time.Second))
	if failed > 0 {
		return 1
	}
	return 0
}

// extract writes the files of commit rev into dir.
func extract(root, rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", rev)
	archive.Dir = root
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	var stderr bytes.Buffer
	archive.Stderr, untar.Stderr = &stderr, &stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait()
		return fmt.Errorf("git archive %s: %v: %s", rev, err, stderr.Bytes())
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("tar: %v: %s", err, stderr.Bytes())
	}
	return nil
}

// measure runs both halves and returns the verdict rows.
func measure(base, change tree, tmp string) ([]row, error) {
	raw, err := os.ReadFile(filepath.Join(change.dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}

	// Build each Go benchmark binary once per tree, so the pairs time
	// the benchmarks and not the compiler.
	bins := map[string][]string{}
	for _, t := range []tree{base, change} {
		for i, g := range goBenches {
			bin := filepath.Join(tmp, fmt.Sprintf("%s-%d.test", t.name, i))
			if _, err := runIn(t, ".", "go", "test", "-c", "-o", bin, g.pkg); err != nil {
				return nil, err
			}
			bins[t.name] = append(bins[t.name], bin)
		}
	}

	order := func(p int) []tree {
		if p%2 == 1 {
			return []tree{change, base}
		}
		return []tree{base, change}
	}
	perf := map[string]map[string][]result{base.name: {}, change.name: {}}
	for p := 0; p < pairs; p++ {
		for _, w := range s.Workloads {
			for _, t := range order(p) {
				out, err := runIn(t, ".", "bash", "perfbench/run.sh",
					"--workload", w.Name, "--seed", "1", "--seconds", seconds, "--trace", "0")
				r, perr := parseResult(out)
				if perr != nil {
					return nil, fmt.Errorf("%s %s: %v (%v)", t.name, w.Name, perr, err)
				}
				perf[t.name][w.Name] = append(perf[t.name][w.Name], r)
			}
		}
		fmt.Fprintf(os.Stderr, "benchgate: perfbench pair %d of %d done\n", p+1, pairs)
	}
	ns := map[string]map[string][]float64{base.name: {}, change.name: {}}
	for p := 0; p < goPairs; p++ {
		for i, g := range goBenches {
			for _, name := range g.names {
				for _, t := range order(p) {
					out, err := runIn(t, g.pkg, bins[t.name][i],
						"-test.run", "^$", "-test.bench", "^"+name+"$", "-test.benchtime", benchtime, "-test.timeout", "10m")
					if err != nil {
						return nil, err
					}
					if v, ok := parseBench(out)[name]; ok {
						ns[t.name][name] = append(ns[t.name][name], v)
					}
				}
			}
		}
	}

	var rows []row
	for _, w := range s.Workloads {
		rows = append(rows, perfRows(w.Name, s.EndToEnd, perf[base.name][w.Name], perf[change.name][w.Name])...)
	}
	for _, g := range goBenches {
		rows = append(rows, goRows(g.names, ns[base.name], ns[change.name])...)
	}
	return rows, nil
}

// runIn runs a command in dir (relative to the tree) with the tree's
// CARGO_TARGET_DIR, and returns its standard output.  A failing
// command's error carries the tail of its standard error.
func runIn(t tree, dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = filepath.Join(t.dir, dir)
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR="+t.target)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		tail := stderr.String()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return out, fmt.Errorf("%s: %s %s: %v\n%s", t.name, name, strings.Join(args, " "), err, tail)
	}
	return out, nil
}

// parseResult decodes the last non-empty line of perfbench's output.
func parseResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("no result line: %v", err)
	}
	return r, nil
}

// benchLine matches one result line of go test -bench, with the
// -GOMAXPROCS suffix split off the name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parseBench returns the ns/op of every benchmark in out.
func parseBench(out []byte) map[string]float64 {
	got := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if m := benchLine.FindStringSubmatch(sc.Text()); m != nil {
			if v, err := strconv.ParseFloat(m[2], 64); err == nil {
				got[m[1]] = v
			}
		}
	}
	return got
}

// perfRows judges one workload: correctness of every run, the failed
// share, and the median of each end-to-end metric.
func perfRows(workload string, metrics []metric, parent, change []result) []row {
	var rows []row
	for side, runs := range [][]result{parent, change} {
		for _, r := range runs {
			if !r.Correct {
				verdict := []string{"parent", "change"}[side] + " run reports correct:false"
				rows = append(rows, row{group: workload, name: "correct", verdict: verdict, fail: true})
				break
			}
		}
	}
	ps, cs := failedShare(parent), failedShare(change)
	share := row{group: workload, name: "failed/attempted", parent: ps, change: cs, verdict: "ok"}
	if cs > ps {
		share.verdict, share.fail = "WORSE", true
	}
	rows = append(rows, share)
	for _, m := range metrics {
		pv, pok := values(parent, m.Name)
		cv, cok := values(change, m.Name)
		r := row{group: workload, name: m.Name, bound: m.Bound}
		switch {
		case !cok:
			r.verdict, r.fail = "missing on change", true
		case !pok:
			r.change, r.verdict = median(cv), "not compared"
		default:
			r.parent, r.change = median(pv), median(cv)
			r.verdict, r.fail = judge(r.parent, r.change, m.Bound, m.Better == "higher")
		}
		rows = append(rows, r)
	}
	return rows
}

// goRows judges the Go benchmarks' median ns/op against goBound.
func goRows(names []string, parent, change map[string][]float64) []row {
	var rows []row
	for _, name := range names {
		r := row{group: "go", name: name, bound: goBound}
		switch {
		case len(change[name]) == 0:
			r.verdict, r.fail = "missing on change", true
		case len(parent[name]) == 0:
			r.change, r.verdict = median(change[name]), "not compared"
		default:
			r.parent, r.change = median(parent[name]), median(change[name])
			r.verdict, r.fail = judge(r.parent, r.change, goBound, false)
		}
		rows = append(rows, r)
	}
	return rows
}

// judge reports whether change is worse than parent by more than
// bound, as a fraction of parent, in the metric's direction.
func judge(parent, change, bound float64, higherBetter bool) (string, bool) {
	worse := 0.0
	if change != parent {
		worse = (change - parent) / parent
		if higherBetter {
			worse = -worse
		}
	}
	verdict := fmt.Sprintf("ok (%+.1f%%)", 100*worse)
	if worse > bound {
		return fmt.Sprintf("WORSE (%+.1f%%)", 100*worse), true
	}
	return verdict, false
}

func failedShare(runs []result) float64 {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// values collects a metric over runs; ok is false unless every run
// reports it.
func values(runs []result, name string) ([]float64, bool) {
	var vs []float64
	for _, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		vs = append(vs, m.Value)
	}
	return vs, len(vs) > 0
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printRows writes the verdict table and returns the failing rows.
func printRows(w io.Writer, rows []row) int {
	failed := 0
	fmt.Fprintf(w, "%-13s %-26s %14s %14s %6s  %s\n", "workload", "metric", "parent", "change", "bound", "verdict")
	for _, r := range rows {
		if r.fail {
			failed++
		}
		fmt.Fprintf(w, "%-13s %-26s %14.6g %14.6g %6.2f  %s\n", r.group, r.name, r.parent, r.change, r.bound, r.verdict)
	}
	return failed
}
