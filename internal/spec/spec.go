// Package spec states the simulator's structural rules (DESIGN.md §3) as
// brute-force scans over plain slices: the order a drive serves its
// queue in, the cache's eviction choice, the hint-less policies' recency
// victim, the missing positions aggressive and forestall read, their
// batch rule and forestall's stall forecast, reverse aggressive's
// reverse pass and replay release rule, and the ppctrace text line rule
// that trace.Read implements.
//
// Each statement is the shortest one that gives the same answer as the
// incremental structure it specifies, and the differential tests of
// internal/disk, internal/cache, internal/policy and internal/revagg, and
// internal/trace's FuzzParseTrace, compare against it. Like
// internal/trace/tracetest it is test support: only _test.go files
// import it. It imports nothing above internal/layout and
// internal/future, so those packages' in-package tests can use it.
package spec

import "ppcsim/internal/layout"

// NoBlock marks the absence of a block, as cache.NoBlock does.
const NoBlock = layout.BlockID(-1)
