package coord

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"ppcsim"
	"ppcsim/internal/serve"
)

// JobSpec is the JSON body of POST /v1/jobs: one whole sweep grid as a
// single job. It embeds the shared serve.RunSpec (flattened into the
// same object) as the base configuration, and the grid axes below
// multiply it into cells: the cross product of algorithms × disk
// counts × cache sizes × windows, every cell inheriting the base's
// trace, scheduler, hints, and tuning fields.
//
// An axis and its scalar base field are mutually exclusive — a job
// either fixes `algorithm` or sweeps `algorithms`, never both — so a
// spec always reads unambiguously.
type JobSpec struct {
	serve.RunSpec
	// Algorithms sweeps RunSpec.Algorithm. One of the two must be set.
	Algorithms []string `json:"algorithms,omitempty"`
	// DiskCounts sweeps RunSpec.Disks.
	DiskCounts []int `json:"disk_counts,omitempty"`
	// CacheSizes sweeps RunSpec.CacheBlocks.
	CacheSizes []int `json:"cache_sizes,omitempty"`
	// Windows sweeps RunSpec.Window.
	Windows []int `json:"windows,omitempty"`
	// TimeoutMs caps each cell's simulation time on the worker (host
	// milliseconds). Transport-only: excluded from all keys.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
}

// Cell is one grid point of a job: a fully resolved single-run spec
// plus its position in the deterministic expansion order.
type Cell struct {
	// Index is the cell's position in expansion order (algorithms-major,
	// then disk counts, cache sizes, windows — the same nesting ppc-sweep
	// uses, so streams sorted by Index line up with its CSV rows).
	Index int `json:"index"`
	// Spec is the cell's single-run configuration, exactly what the
	// coordinator posts to a worker's /v1/run.
	Spec serve.RunSpec `json:"spec"`
	// Key is Spec.Key(): the canonical cache key the owning worker will
	// also derive, which is what the consistent-hash routing hashes.
	Key string `json:"key"`
}

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
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

func (s *JobSpec) validate() error {
	switch {
	case s.Algorithm == "" && len(s.Algorithms) == 0:
		return &ppcsim.ConfigError{Field: "Algorithms", Reason: "one of algorithm or algorithms is required"}
	case s.Algorithm != "" && len(s.Algorithms) > 0:
		return &ppcsim.ConfigError{Field: "Algorithms", Reason: "algorithm and algorithms are mutually exclusive"}
	}
	if s.Disks != nil && len(s.DiskCounts) > 0 {
		return &ppcsim.ConfigError{Field: "DiskCounts", Reason: "disks and disk_counts are mutually exclusive"}
	}
	if s.CacheBlocks != nil && len(s.CacheSizes) > 0 {
		return &ppcsim.ConfigError{Field: "CacheSizes", Reason: "cache_blocks and cache_sizes are mutually exclusive"}
	}
	if s.Window != nil && len(s.Windows) > 0 {
		return &ppcsim.ConfigError{Field: "Windows", Reason: "window and windows are mutually exclusive"}
	}
	for _, d := range s.DiskCounts {
		if d <= 0 {
			return &ppcsim.ConfigError{Field: "DiskCounts", Reason: fmt.Sprintf("must be positive, got %d", d)}
		}
	}
	for _, c := range s.CacheSizes {
		if c <= 0 {
			return &ppcsim.ConfigError{Field: "CacheSizes", Reason: fmt.Sprintf("must be positive, got %d", c)}
		}
	}
	for _, w := range s.Windows {
		if w <= 0 {
			return &ppcsim.ConfigError{Field: "Windows", Reason: fmt.Sprintf("must be positive, got %d", w)}
		}
	}
	if s.TimeoutMs < 0 {
		return &ppcsim.ConfigError{Field: "TimeoutMs", Reason: fmt.Sprintf("must be non-negative, got %g", s.TimeoutMs)}
	}
	return nil
}

// Cells expands the grid into its deterministic cell list
// (algorithms-major, then disk counts, cache sizes, windows) and checks
// every cell with RunSpec.Validate, so a cell that breaks a rule
// checkable without its trace fails the whole job before any worker is
// touched. maxCells bounds the expansion before anything is allocated,
// so a typo'd grid cannot fan a million simulations onto the fleet.
func (s *JobSpec) Cells(maxCells int) ([]Cell, error) {
	algs := s.Algorithms
	if len(algs) == 0 {
		algs = []string{s.Algorithm}
	}
	nd, nc, nw := len(s.DiskCounts), len(s.CacheSizes), len(s.Windows)
	if nd == 0 {
		nd = 1
	}
	if nc == 0 {
		nc = 1
	}
	if nw == 0 {
		nw = 1
	}
	total := len(algs) * nd * nc * nw
	if total > maxCells {
		return nil, &ppcsim.ConfigError{Field: "JobSpec",
			Reason: fmt.Sprintf("grid expands to %d cells, limit %d", total, maxCells)}
	}
	cells := make([]Cell, 0, total)
	for _, alg := range algs {
		for di := 0; di < nd; di++ {
			for ci := 0; ci < nc; ci++ {
				for wi := 0; wi < nw; wi++ {
					spec := s.RunSpec
					spec.Algorithm = alg
					if len(s.DiskCounts) > 0 {
						d := s.DiskCounts[di]
						spec.Disks = &d
					}
					if len(s.CacheSizes) > 0 {
						c := s.CacheSizes[ci]
						spec.CacheBlocks = &c
					}
					if len(s.Windows) > 0 {
						w := s.Windows[wi]
						spec.Window = &w
					}
					if err := spec.Validate(); err != nil {
						return nil, fmt.Errorf("cell %d: %w", len(cells), err)
					}
					cells = append(cells, Cell{
						Index: len(cells),
						Spec:  spec,
						Key:   spec.Key(),
					})
				}
			}
		}
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
