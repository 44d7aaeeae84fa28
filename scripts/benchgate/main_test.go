package main

import (
	"fmt"
	"strings"
	"testing"
)

var testMetrics = []metric{
	{Name: "run_s", Better: "lower", Bound: 0.25},
	{Name: "sim_displays_per_hour", Better: "higher", Bound: 0.1},
}

// line is one perfbench result line.
func line(correct bool, attempted, failed int, runS, perHour float64) string {
	return fmt.Sprintf(`{"correct":%t,"attempted":%d,"failed":%d,"metrics":{"run_s":{"value":%g,"unit":"s"},"sim_displays_per_hour":{"value":%g,"unit":"displays/h"}}}`,
		correct, attempted, failed, runS, perHour)
}

// results parses perfbench outputs the way the gate does: an
// environment line first, the result line last.
func results(t *testing.T, lines ...string) []result {
	t.Helper()
	var rs []result
	for _, l := range lines {
		r, err := parseResult([]byte(`{"env":{"seed":1}}` + "\nerror_rate 0 ratio\n" + l + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	return rs
}

// verdicts maps each row's name to whether it fails.
func verdicts(rows []row) map[string]bool {
	got := map[string]bool{}
	for _, r := range rows {
		got[r.name] = got[r.name] || r.fail
	}
	return got
}

func TestBounds(t *testing.T) {
	for _, tc := range []struct {
		name            string
		runS, perHour   float64
		runFail, hrFail bool
	}{
		{"equal", 1, 100, false, false},
		{"better", 0.5, 200, false, false},
		{"at the bound", 1.25, 90, false, false},
		{"just under the bound", 1.249, 90.01, false, false},
		{"just over the bound", 1.251, 89.99, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := results(t, line(true, 10, 0, 1, 100))
			change := results(t, line(true, 10, 0, tc.runS, tc.perHour))
			got := verdicts(perfRows("hotset", testMetrics, parent, change))
			if got["run_s"] != tc.runFail || got["sim_displays_per_hour"] != tc.hrFail {
				t.Errorf("run_s fails %t, sim_displays_per_hour fails %t; want %t, %t",
					got["run_s"], got["sim_displays_per_hour"], tc.runFail, tc.hrFail)
			}
		})
	}
}

func TestMedianOfEvenCount(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %g, want 2", got)
	}
	// The medians, not single runs, are compared: one slow run of four
	// moves the even-count median by half a step.
	parent := results(t, line(true, 10, 0, 1, 100), line(true, 10, 0, 1, 100), line(true, 10, 0, 1, 100), line(true, 10, 0, 1, 100))
	change := results(t, line(true, 10, 0, 1, 100), line(true, 10, 0, 1, 100), line(true, 10, 0, 1.5, 100), line(true, 10, 0, 5, 100))
	rows := perfRows("hotset", testMetrics, parent, change)
	for _, r := range rows {
		if r.name == "run_s" && (r.change != 1.25 || r.fail) {
			t.Errorf("run_s median %g (fail %t), want 1.25 passing", r.change, r.fail)
		}
	}
}

func TestIncorrectRunFails(t *testing.T) {
	good, bad := line(true, 10, 0, 1, 100), line(false, 10, 10, 1, 100)
	for _, tc := range []struct {
		side           string
		parent, change []string
	}{
		{"parent", []string{good, bad}, []string{good, good}},
		{"change", []string{good, good}, []string{bad, good}},
	} {
		rows := perfRows("paper", testMetrics, results(t, tc.parent...), results(t, tc.change...))
		if !verdicts(rows)["correct"] {
			t.Errorf("correct:false on the %s side passes", tc.side)
		}
		for _, r := range rows {
			if r.name == "correct" && !strings.HasPrefix(r.verdict, tc.side) {
				t.Errorf("verdict %q does not name the %s side", r.verdict, tc.side)
			}
		}
	}
}

func TestHigherFailedShareFails(t *testing.T) {
	parent := results(t, line(true, 1000, 1, 1, 100))
	for _, tc := range []struct {
		failed int
		fail   bool
	}{{0, false}, {1, false}, {2, true}} {
		change := results(t, line(true, 1000, tc.failed, 1, 100))
		if got := verdicts(perfRows("fleet", testMetrics, parent, change))["failed/attempted"]; got != tc.fail {
			t.Errorf("%d of 1000 failed against 1 of 1000: fails %t, want %t", tc.failed, got, tc.fail)
		}
	}
}

func TestMetricMissingOnChangeFails(t *testing.T) {
	parent := results(t, line(true, 10, 0, 1, 100))
	change := results(t, `{"correct":true,"attempted":10,"failed":0,"metrics":{"run_s":{"value":1,"unit":"s"}}}`)
	rows := perfRows("hotset", testMetrics, parent, change)
	if got := verdicts(rows); got["run_s"] || !got["sim_displays_per_hour"] {
		t.Errorf("rows %+v: want only sim_displays_per_hour failing", rows)
	}
}

func TestGoBenchMissingOnBaseNotCompared(t *testing.T) {
	out := []byte("goos: linux\n" +
		"BenchmarkFigure8a-2   \t     100\t   4129636 ns/op\t  441897 B/op\t    4911 allocs/op\n" +
		"BenchmarkCalendarCancel \t 1000000\t        21.5 ns/op\n" +
		"PASS\n")
	change := map[string][]float64{}
	for name, v := range parseBench(out) {
		change[name] = append(change[name], v)
	}
	parent := map[string][]float64{"BenchmarkFigure8a": {4000000}}
	rows := goRows([]string{"BenchmarkFigure8a", "BenchmarkCalendarCancel", "BenchmarkGone"}, parent, change)
	want := []struct {
		verdict string
		fail    bool
	}{{"ok (+3.2%)", false}, {"not compared", false}, {"missing on change", true}}
	for i, r := range rows {
		if r.verdict != want[i].verdict || r.fail != want[i].fail {
			t.Errorf("%s: verdict %q fail %t, want %q %t", r.name, r.verdict, r.fail, want[i].verdict, want[i].fail)
		}
	}
	if rows[1].change != 21.5 {
		t.Errorf("BenchmarkCalendarCancel parsed as %g ns/op, want 21.5", rows[1].change)
	}
	if _, fail := judge(100, 121, goBound, false); !fail {
		t.Error("a 21% rise in ns/op passes the 0.20 bound")
	}
}
