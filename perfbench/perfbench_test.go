package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/mmsim/staggered/internal/cluster"
	"github.com/mmsim/staggered/internal/sched"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricSpecs(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %q has unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
		}
	}
	var setup metricSpec
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s missing or not a lower-is-better time: %+v", setup)
	}
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%q has a larger bound than setup_s", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q invalid or reused", w.name)
		}
		seen[w.name] = true
		if len(w.why) == 0 || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %q: why must be one line of 1..200 characters", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesCode pins the repository's BENCHMARK.json to
// what -describe prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	fromCode, err := describeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fromCode, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("BENCHMARK.json differs from -describe output:\n%s", fromCode)
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	fill := func(n int) *histogram {
		var h histogram
		for i := 0; i < n; i++ {
			h.add(i)
		}
		return &h
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 9, false}, // rank 10, 9 beyond
		{20, 0.5, 9, true},  // rank 10, 10 beyond
		{999, 0.99, 989, false},
		{1000, 0.99, 989, true},
	} {
		got, ok := fill(c.n).quantile(c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("n=%d q=%v: got (%d, %v), want (%d, %v)", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// TestTinyWorkloadsStableAndChecked runs every workload at test size
// twice in one process, untraced and traced: the output checks hold
// and the digest repeats.
func TestTinyWorkloadsStableAndChecked(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := runPlan(w.build(7, true), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runPlan(w.build(7, true), newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*replicate{a, b} {
				if len(r.failures) > 0 {
					t.Errorf("checks failed: %v", r.failures)
				}
				if r.requests() == 0 || r.unserved() != 0 {
					t.Errorf("requests %d, unserved %d", r.requests(), r.unserved())
				}
			}
			if a.digest != b.digest {
				t.Errorf("digest %s then %s", a.digest, b.digest)
			}
			if c, _ := runPlan(w.build(8, true), nil); c != nil && c.digest == a.digest {
				t.Errorf("seeds 7 and 8 share digest %s", a.digest)
			}
		})
	}
}

func TestDigestsRecorded(t *testing.T) {
	rec, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(rec[w.name]) != 16 {
			t.Errorf("no recorded digest for %q", w.name)
		}
	}
}

// TestDigestCoversEveryField perturbs each numeric field of a Result,
// its latency tally and the cluster ledger in turn: every change must
// change the digest.
func TestDigestCoversEveryField(t *testing.T) {
	base := sched.Result{Technique: "simple striping", Stations: 8, DistMean: 20}
	base.Latency.Add(1)
	c := cluster.Result{Aggregate: base, Servers: []sched.Result{base}, Routed: []int{1}}
	ref := digest([]sched.Result{base}, &c)

	rv := reflect.ValueOf(&base).Elem()
	for i := 0; i < rv.NumField(); i++ {
		r := base
		f := reflect.ValueOf(&r).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			continue
		}
		name := rv.Type().Field(i).Name
		if digest([]sched.Result{r}, &c) == ref {
			t.Errorf("run digest ignores Result.%s", name)
		}
		c2 := c
		c2.Servers = []sched.Result{r}
		if digest([]sched.Result{base}, &c2) == ref {
			t.Errorf("cluster digest ignores member Result.%s", name)
		}
	}
	r := base
	r.Latency.Add(2)
	if digest([]sched.Result{r}, &c) == ref {
		t.Error("digest ignores the latency tally")
	}

	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		c2 := c
		f := reflect.ValueOf(&c2).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			continue
		}
		if digest([]sched.Result{base}, &c2) == ref {
			t.Errorf("digest ignores cluster.Result.%s", cv.Type().Field(i).Name)
		}
	}
	c2 := c
	c2.Routed = []int{2}
	if digest([]sched.Result{base}, &c2) == ref {
		t.Error("digest ignores cluster.Result.Routed")
	}
}

func TestFuncPackageAndLayer(t *testing.T) {
	for _, c := range []struct {
		frames []string
		pkg    string
		layer  string
	}{
		{[]string{modulePrefix + "sim.(*TickWheel[" + modulePrefix + "sched.followerRef]).Due"}, modulePrefix + "sim", "sim"},
		{[]string{modulePrefix + "sched.labeled.func1"}, modulePrefix + "sched", "sched"},
		{[]string{"runtime.mallocgc", "runtime.newobject", modulePrefix + "core.(*Store).PlaceAt"}, "runtime", "runtime"},
		{[]string{"math.archLog", modulePrefix + "rng.(*Discrete).Sample"}, "math", "rng"},
		{[]string{"runtime.mallocgc", "context.WithValue", "runtime/pprof.Do", modulePrefix + "sched.labeled"}, "runtime", "trace"},
		{[]string{"runtime.nanotime", "time.Since", "main.(*tracer).stepEngine"}, "runtime", "trace"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime", "runtime"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.lock2"}, "internal/runtime/atomic", "runtime"},
	} {
		if got := funcPackage(c.frames[0]); got != c.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", c.frames[0], got, c.pkg)
		}
		if got := layerOf(c.frames); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.layer)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestParseCPUProfile decodes a profile the runtime writes: labeled
// samples come back with their label and a stack naming the function
// that ran.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("bench", "step"), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labeled, withSpin int64
	for _, s := range samples {
		if s.count <= 0 || len(s.frames) == 0 {
			t.Fatalf("sample without count or stack: %+v", s)
		}
		if s.labels["bench"] == "step" {
			labeled += s.count
			for _, f := range s.frames {
				if f == "github.com/mmsim/staggered/perfbench.spin" || f == "main.spin" {
					withSpin += s.count
					break
				}
			}
		}
	}
	if labeled < 5 || withSpin*2 < labeled {
		t.Fatalf("%d labeled samples, %d of them in spin", labeled, withSpin)
	}
	sh := shareProfile(samples)
	if sh.stepTotal < labeled {
		t.Errorf("step samples %d < labeled %d", sh.stepTotal, labeled)
	}
}
