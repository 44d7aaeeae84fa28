package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as ssim itself: with
// SSIM_RUN_MAIN set, the process runs the command body on its own
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("SSIM_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runSSIM runs ssim with args in a child process and returns its exit
// code and standard error.
func runSSIM(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SSIM_RUN_MAIN=1")
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
		t.Fatalf("running ssim %v: %v", args, err)
		return 0, ""
	}
}

// TestBadFlagsExit2 pins that out-of-range flag values are usage
// errors: the run is refused with exit 2 and a message naming the
// flag, instead of silently running some other configuration.
func TestBadFlagsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scale", "quick", "-servers", "0"}, "-servers"},
		{[]string{"-scale", "quick", "-servers", "-2"}, "-servers"},
		{[]string{"-scale", "quick", "-cachemb", "-1"}, "-cachemb"},
		{[]string{"-scale", "quick", "-batchwindow", "-1"}, "-batchwindow"},
		{[]string{"-scale", "huge"}, "scale"},
	} {
		code, stderr := runSSIM(t, tc.args...)
		if code != 2 {
			t.Errorf("ssim %v exited %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.flag) {
			t.Errorf("ssim %v: stderr %q does not name %s", tc.args, stderr, tc.flag)
		}
	}
}
