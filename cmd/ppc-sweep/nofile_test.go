//go:build unix

package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"ppcsim"
)

// nofileTraceEnv names the columnar trace a child test process sweeps
// under a lowered open-file limit.
const nofileTraceEnv = "PPC_SWEEP_NOFILE_TRACE"

// TestLocalSweepOpenHandles: a local -trace-file sweep holds no more
// trace handles than it has workers, so a 100-cell grid completes under
// a 32-file limit. The sweep runs in a child process, the only one the
// lowered limit binds.
func TestLocalSweepOpenHandles(t *testing.T) {
	if path := os.Getenv(nofileTraceEnv); path != "" {
		sweepUnderNofile(path)
		return
	}
	src, err := ppcsim.LargeTraceSpec{Refs: 2000, Blocks: 256, Pattern: "zipf", Seed: 3}.Source()
	if err != nil {
		t.Fatal(err)
	}
	var col bytes.Buffer
	if _, err := ppcsim.WriteColumnarTrace(&col, src); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.ppccol")
	if err := os.WriteFile(path, col.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestLocalSweepOpenHandles$")
	cmd.Env = append(os.Environ(), nofileTraceEnv+"="+path)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep under a 32-file limit: %v\n%s", err, stderr.String())
	}
	if rows := strings.Count(stdout.String(), "\n") - 1; rows != 100 {
		t.Errorf("sweep wrote %d rows, want 100:\n%s", rows, stderr.String())
	}
}

// sweepUnderNofile lowers this process's open-file limit to 32 and runs
// a 100-cell sweep of the trace at path, writing its CSV to stdout. It
// exits, so the test framework adds nothing to the output.
func sweepUnderNofile(path string) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	lim.Cur = 32
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	err := run([]string{"-trace-file", path, "-algs", "demand", "-disks", "1,2,3,4,5,6,7,8,9,10",
		"-window", "100,200,300,400,500,600,700,800,900,1000", "-parallel", "1"}, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}
