package coord

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"ppcsim"
	"ppcsim/internal/serve"
)

// JobSpec is the JSON body of POST /v1/jobs, and the one description
// of a sweep grid: ppc-sweep expands the same value locally. It embeds
// the shared serve.RunSpec (flattened into the same object) as the base
// configuration, and the grid axes below multiply it into cells: the
// cross product of traces × algorithms × disk counts × schedulers ×
// cache sizes × windows × batch sizes × horizons, every cell inheriting
// the base's other fields.
//
// An axis and its scalar base field are mutually exclusive — a job
// either fixes `algorithm` or sweeps `algorithms`, never both — so a
// spec always reads unambiguously.
type JobSpec struct {
	serve.RunSpec
	// Traces sweeps RunSpec.Trace over bundled trace names; it excludes
	// every other trace source.
	Traces []string `json:"traces,omitempty"`
	// Algorithms sweeps RunSpec.Algorithm. One of the two must be set.
	Algorithms []string `json:"algorithms,omitempty"`
	// DiskCounts sweeps RunSpec.Disks.
	DiskCounts []int `json:"disk_counts,omitempty"`
	// Schedulers sweeps RunSpec.Scheduler.
	Schedulers []string `json:"schedulers,omitempty"`
	// CacheSizes sweeps RunSpec.CacheBlocks.
	CacheSizes []int `json:"cache_sizes,omitempty"`
	// Windows sweeps RunSpec.Window.
	Windows []int `json:"windows,omitempty"`
	// BatchSizes sweeps RunSpec.BatchSize (0 = the paper's default).
	BatchSizes []int `json:"batch_sizes,omitempty"`
	// Horizons sweeps RunSpec.Horizon (0 = the paper's default).
	Horizons []int `json:"horizons,omitempty"`
	// TimeoutMs caps each cell's simulation time on the worker (host
	// milliseconds). Transport-only: excluded from all keys.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
}

// Cell is one grid point of a job: a fully resolved single-run spec
// plus its position in the deterministic expansion order.
type Cell struct {
	// Index is the cell's position in expansion order (traces-major,
	// then algorithms, disk counts, schedulers, cache sizes, windows,
	// batch sizes, horizons), which is the order of ppc-sweep's CSV rows.
	Index int `json:"index"`
	// Spec is the cell's single-run configuration, exactly what the
	// coordinator posts to a worker's /v1/run.
	Spec serve.RunSpec `json:"spec"`
	// Key is Spec.Key(): the canonical cache key the owning worker will
	// also derive, which is what the consistent-hash routing hashes.
	Key string `json:"key"`
}

// CellError is a grid cell that fails the single-run boundary. It
// unwraps to that failure, normally a *ppcsim.ConfigError.
type CellError struct {
	Index int
	Spec  serve.RunSpec
	Err   error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

func (e *CellError) Unwrap() error { return e.Err }

// ParseJobSpec decodes a /v1/jobs body and checks its wire rules with
// the same strictness as the single-run boundary: unknown fields and
// trailing data are rejected, and every failure is a *ppcsim.ConfigError
// naming the offending field. It does not expand the grid; Cells does,
// and checks every cell as it goes.
func ParseJobSpec(body []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, &ppcsim.ConfigError{Field: "JobSpec", Reason: fmt.Sprintf("bad JSON: %v", err)}
	}
	if dec.More() {
		return nil, &ppcsim.ConfigError{Field: "JobSpec", Reason: "trailing data after JSON body"}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the job-level wire rules ParseJobSpec applies after
// decoding: one algorithm form, the exclusive scalar and axis pairs,
// positive disk, cache and window axes, and a finite non-negative
// timeout. Each failure is a *ppcsim.ConfigError naming the field.
// ppc-sweep runs it on the grid it builds from flags.
func (s *JobSpec) Validate() error {
	switch {
	case s.Algorithm == "" && len(s.Algorithms) == 0:
		return &ppcsim.ConfigError{Field: "Algorithms", Reason: "one of algorithm or algorithms is required"}
	case s.Algorithm != "" && len(s.Algorithms) > 0:
		return &ppcsim.ConfigError{Field: "Algorithms", Reason: "algorithm and algorithms are mutually exclusive"}
	}
	exclusive := []struct {
		scalar, axis  bool
		field, reason string
	}{
		{s.Trace != "" || s.TraceText != "" || s.TraceSpec != nil || s.TraceHash != "", len(s.Traces) > 0,
			"Traces", "traces excludes trace, trace_text, trace_spec and trace_hash"},
		{s.Disks != nil, len(s.DiskCounts) > 0, "DiskCounts", "disks and disk_counts are mutually exclusive"},
		{s.Scheduler != "", len(s.Schedulers) > 0, "Schedulers", "scheduler and schedulers are mutually exclusive"},
		{s.CacheBlocks != nil, len(s.CacheSizes) > 0, "CacheSizes", "cache_blocks and cache_sizes are mutually exclusive"},
		{s.Window != nil, len(s.Windows) > 0, "Windows", "window and windows are mutually exclusive"},
		{s.BatchSize != 0, len(s.BatchSizes) > 0, "BatchSizes", "batch_size and batch_sizes are mutually exclusive"},
		{s.Horizon != 0, len(s.Horizons) > 0, "Horizons", "horizon and horizons are mutually exclusive"},
	}
	for _, x := range exclusive {
		if x.scalar && x.axis {
			return &ppcsim.ConfigError{Field: x.field, Reason: x.reason}
		}
	}
	positive := []struct {
		field string
		vals  []int
	}{{"DiskCounts", s.DiskCounts}, {"CacheSizes", s.CacheSizes}, {"Windows", s.Windows}}
	for _, p := range positive {
		for _, v := range p.vals {
			if v <= 0 {
				return &ppcsim.ConfigError{Field: p.field, Reason: fmt.Sprintf("must be positive, got %d", v)}
			}
		}
	}
	if math.IsNaN(s.TimeoutMs) || math.IsInf(s.TimeoutMs, 0) || s.TimeoutMs < 0 {
		return &ppcsim.ConfigError{Field: "TimeoutMs", Reason: fmt.Sprintf("must be finite and non-negative, got %g", s.TimeoutMs)}
	}
	return nil
}

// Cells expands the grid into its deterministic cell list (traces-major,
// then algorithms, disk counts, schedulers, cache sizes, windows, batch
// sizes, horizons) and checks every cell with RunSpec.Validate, so a
// cell that breaks a rule checkable without its trace fails the whole
// job, as a *CellError, before any worker is touched. maxCells bounds
// the expansion before anything is allocated, so a typo'd grid cannot
// fan a million simulations onto the fleet.
func (s *JobSpec) Cells(maxCells int) ([]Cell, error) {
	algs := s.Algorithms
	if len(algs) == 0 {
		algs = []string{s.Algorithm}
	}
	// The axes in nesting order, outermost first; an empty axis leaves
	// the base's field in every cell.
	axes := []struct {
		n   int
		set func(r *serve.RunSpec, i int)
	}{
		{len(s.Traces), func(r *serve.RunSpec, i int) { r.Trace = s.Traces[i] }},
		{len(algs), func(r *serve.RunSpec, i int) { r.Algorithm = algs[i] }},
		{len(s.DiskCounts), func(r *serve.RunSpec, i int) { d := s.DiskCounts[i]; r.Disks = &d }},
		{len(s.Schedulers), func(r *serve.RunSpec, i int) { r.Scheduler = s.Schedulers[i] }},
		{len(s.CacheSizes), func(r *serve.RunSpec, i int) { c := s.CacheSizes[i]; r.CacheBlocks = &c }},
		{len(s.Windows), func(r *serve.RunSpec, i int) { w := s.Windows[i]; r.Window = &w }},
		{len(s.BatchSizes), func(r *serve.RunSpec, i int) { r.BatchSize = s.BatchSizes[i] }},
		{len(s.Horizons), func(r *serve.RunSpec, i int) { r.Horizon = s.Horizons[i] }},
	}
	// Multiply one axis at a time and stop once past the limit, so no
	// product can wrap around.
	total := 1
	for _, a := range axes {
		if a.n == 0 {
			continue
		}
		if total > maxCells/a.n {
			return nil, &ppcsim.ConfigError{Field: "JobSpec",
				Reason: fmt.Sprintf("grid expands to more than %d cells", maxCells)}
		}
		total *= a.n
	}
	cells := make([]Cell, 0, total)
	for idx := 0; idx < total; idx++ {
		spec := s.RunSpec
		rem := idx
		for a := len(axes) - 1; a >= 0; a-- {
			if n := axes[a].n; n > 0 {
				axes[a].set(&spec, rem%n)
				rem /= n
			}
		}
		if err := spec.Validate(); err != nil {
			return nil, &CellError{Index: idx, Spec: spec, Err: err}
		}
		cells = append(cells, Cell{Index: idx, Spec: spec, Key: spec.Key()})
	}
	return cells, nil
}

// JobKey returns the job's canonical identity: the hex SHA-256 over the
// sorted set of cell keys. Two submissions whose grids expand to the
// same cell set — however the axes were spelled or ordered — share a
// key, and therefore share one persisted result grid.
func JobKey(cells []Cell) string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
