package coord

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ppcsim/internal/serve/tracestore"
)

// StoredJob is a completed grid: every cell's exact result bytes, keyed
// by the job's canonical identity. Because results are deterministic,
// replaying a StoredJob is indistinguishable from recomputing it —
// byte-for-byte — so identical resubmissions are served from storage
// with zero recomputed cells.
type StoredJob struct {
	JobKey string       `json:"job_key"`
	Cells  []StoredCell `json:"cells"`
}

// StoredCell pairs one cell's canonical key with its result JSON.
type StoredCell struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// Store persists completed jobs. Implementations must be safe for
// concurrent use.
type Store interface {
	// Load returns the stored job for jobKey, or ok=false when absent.
	Load(jobKey string) (job *StoredJob, ok bool, err error)
	// Save persists a completed job (overwriting any previous entry).
	Save(job *StoredJob) error
}

// MemStore is an in-memory Store — the default, scoped to the
// coordinator process's lifetime.
type MemStore struct {
	mu   sync.Mutex
	jobs map[string]*StoredJob
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{jobs: make(map[string]*StoredJob)}
}

// Load implements Store.
func (s *MemStore) Load(jobKey string) (*StoredJob, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[jobKey]
	return j, ok, nil
}

// Save implements Store.
func (s *MemStore) Save(job *StoredJob) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[job.JobKey] = job
	return nil
}

// DirStore persists jobs as one JSON file per job key under a
// directory, surviving coordinator restarts. Writes go through a temp
// file plus rename, so a crash mid-save never leaves a half-written
// grid that a later Load would trust.
type DirStore struct {
	dir string
	mu  sync.Mutex
}

// NewDirStore creates (if needed) and wraps the directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(jobKey string) string {
	// Job keys are hex SHA-256 strings — already safe as file names.
	return filepath.Join(s.dir, jobKey+".json")
}

// Load implements Store.
func (s *DirStore) Load(jobKey string) (*StoredJob, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.path(jobKey))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var job StoredJob
	if err := json.Unmarshal(data, &job); err != nil {
		return nil, false, fmt.Errorf("coord: corrupt stored job %s: %w", jobKey, err)
	}
	if job.JobKey != jobKey {
		return nil, false, fmt.Errorf("coord: stored job %s claims key %s", jobKey, job.JobKey)
	}
	return &job, true, nil
}

// Save implements Store.
func (s *DirStore) Save(job *StoredJob) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(job)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "job-*.tmp")
	if err != nil {
		return err
	}
	// Write and flush the bytes before the rename publishes them, so a
	// power loss cannot leave a named job file that is empty or torn.
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(job.JobKey)); err != nil {
		return err
	}
	return tracestore.SyncDir(s.dir)
}
