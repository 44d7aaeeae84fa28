package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as sweep itself: with
// SWEEP_RUN_MAIN set, the process runs the command body on its own
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runSweep runs sweep with args in a child process and returns its
// exit code and standard error.
func runSweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("running sweep %v: %v", args, err)
		return 0, ""
	}
}

// TestBadFlagsExit2 pins that bad flag values, and run-shaping flags a
// mode would ignore, are usage errors: the sweep is refused with exit
// 2 and a message naming the flag, before any run starts.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-cachemb", "-1"}, "-cachemb"},
		{[]string{"-batchwindow", "-1"}, "-batchwindow"},
		{[]string{"-cachemb", "-1", "-batchwindow", "8"}, "-cachemb"},
		{[]string{"-faults", "fail:x@y"}, "-faults"},
		{[]string{"-scale", "huge"}, "scale"},
		{[]string{"-scale", "10x"}, "unknown scale"},
		{[]string{"-k", "2"}, "-k"},
		{[]string{"-technique", "bogus"}, "-technique"},
		{[]string{"-stations", "0"}, "-stations"},
		// Modes that fix their own configuration.
		{[]string{"-e18", "-faults", "fail:7@600"}, "-faults"},
		{[]string{"-e19", "-pressure"}, "-pressure"},
		{[]string{"-e20", "-cache", "lru"}, "-cache"},
		{[]string{"-e21", "-arrivals", "6000"}, "-arrivals"},
		{[]string{"-servers", "1,2", "-cachemb", "256"}, "-cachemb"},
	} {
		code, stderr := runSweep(t, tc.args...)
		if code != 2 {
			t.Errorf("sweep %v exited %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.flag) {
			t.Errorf("sweep %v: stderr %q does not name %s", tc.args, stderr, tc.flag)
		}
	}
}

// TestExperimentModeWritesProfile pins that the experiment modes honour
// -cpuprofile like the figure sweep does.
func TestExperimentModeWritesProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.out")
	args := []string{"-servers", "1", "-dispatch", "roundrobin", "-csv", "-cpuprofile", prof}
	if code, stderr := runSweep(t, args...); code != 0 {
		t.Fatalf("sweep %v exited %d (stderr %q)", args, code, stderr)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("sweep %v left no CPU profile (%v)", args, err)
	}
}
