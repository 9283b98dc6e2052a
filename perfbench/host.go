package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// host identifies the machine a result came from, so results from
// different hosts are not compared as if they were one.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	CalibMs    float64 `json:"calib_ms"` // fixed CPU loop; drifts with host load and clock
}

func fingerprint() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		ms = append(ms, calibrate())
	}
	h.CalibMs = median(ms)
	return h
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed chain of 2^25 dependent multiply-adds.
func calibrate() float64 {
	x := uint64(1)
	start := time.Now()
	for i := 0; i < 1<<25; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibSink = x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
