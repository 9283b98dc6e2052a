package ppcsim

import (
	"errors"

	"ppcsim/internal/multi"
)

// Multi-process simulation: several processes share the buffer cache and
// disk array, the setting the paper's section 6 leaves open. Replacement
// is global, comparing hinted blocks (hinted distance × the owner's
// compute rate) with unhinted ones (age, i.e. LRU) in estimated
// time-to-next-use, in the spirit of TIP2's cost-benefit allocator.
//
//	res, err := ppcsim.RunMulti(ppcsim.MultiConfig{
//	    Processes: []ppcsim.ProcessSpec{
//	        {Trace: hintedTrace, Algorithm: ppcsim.MultiAggressive, Hinted: true},
//	        {Trace: otherTrace},  // unhinted: demand fetching, LRU value
//	    },
//	    Disks:       2,
//	    CacheBlocks: 1280,
//	})

// MultiConfig configures a multi-process run.
type MultiConfig = multi.Config

// ProcessSpec describes one competing process of a multi-process run.
type ProcessSpec = multi.ProcessSpec

// MultiResult reports a multi-process run.
type MultiResult = multi.Result

// ProcessResult reports one process's share of a multi-process run.
type ProcessResult = multi.ProcessResult

// Per-process strategies for multi-process runs.
const (
	// MultiFixedHorizon prefetches a hinted process's missing blocks at
	// most H references ahead.
	MultiFixedHorizon = multi.FixedHorizon
	// MultiAggressive prefetches a hinted process's first missing blocks
	// whenever a disk is free.
	MultiAggressive = multi.Aggressive
	// MultiForestall prefetches just early enough to forestall predicted
	// stalls, per disk.
	MultiForestall = multi.Forestall
	// MultiDemand never prefetches.
	MultiDemand = multi.Demand
)

// RunMulti executes a multi-process simulation. A configuration mistake
// (no processes, disks <= 0, a cache under 2 blocks, a non-finite driver
// overhead, a process without a valid trace, a write reference) is a
// *ConfigError whose Field names the MultiConfig field.
func RunMulti(cfg MultiConfig) (MultiResult, error) {
	res, err := multi.Run(cfg)
	var ce *multi.ConfigError
	if errors.As(err, &ce) {
		return res, &ConfigError{Field: ce.Field, Reason: ce.Reason}
	}
	return res, err
}
