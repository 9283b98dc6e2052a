package report

import (
	"fmt"
	"strconv"

	"ppcsim/internal/engine"
)

// SweepRun is one run's configuration as a sweep CSV row reports it.
type SweepRun struct {
	Trace, Algorithm, Scheduler        string
	Disks, CacheBlocks, Batch, Horizon int
	HintFraction, HintAccuracy         float64
	Window                             int
}

// SweepHeader returns the sweep CSV's column names. ppc-sweep writes
// this dialect for a grid run locally and for one run with -coord, so
// the two diff clean.
func SweepHeader() []string {
	return []string{
		"trace", "algorithm", "disks", "scheduler", "cache_blocks", "batch", "horizon",
		"hint_fraction", "hint_accuracy", "window",
		"elapsed_sec", "compute_sec", "driver_sec", "stall_sec",
		"fetches", "avg_fetch_ms", "avg_response_ms", "avg_utilization",
	}
}

// SweepRow formats run c and its result r as a sweep CSV row.
func SweepRow(c SweepRun, r engine.Result) []string {
	return []string{
		c.Trace, c.Algorithm, strconv.Itoa(c.Disks), c.Scheduler,
		strconv.Itoa(c.CacheBlocks), strconv.Itoa(c.Batch), strconv.Itoa(c.Horizon),
		fmt.Sprintf("%g", c.HintFraction), fmt.Sprintf("%g", c.HintAccuracy),
		strconv.Itoa(c.Window),
		fmt.Sprintf("%.4f", r.ElapsedSec),
		fmt.Sprintf("%.4f", r.ComputeSec),
		fmt.Sprintf("%.4f", r.DriverTimeSec),
		fmt.Sprintf("%.4f", r.StallTimeSec),
		strconv.FormatInt(r.Fetches, 10),
		fmt.Sprintf("%.3f", r.AvgFetchMs),
		fmt.Sprintf("%.3f", r.AvgResponseMs),
		fmt.Sprintf("%.3f", r.AvgUtilization),
	}
}
