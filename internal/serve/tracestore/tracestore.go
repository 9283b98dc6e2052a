// Package tracestore is a content-addressed store of columnar trace
// files for the serving stack. Traces are named by the lowercase hex
// SHA-256 of their bytes, uploaded once per worker (PUT /v1/traces), and
// then referenced from any number of run cells by hash — the
// cluster-scale analogue of the inline trace body. The store keeps a
// byte budget: least-recently-used blobs are deleted when a new upload
// would exceed it, except that entries pinned by a running simulation
// are never evicted (a sweep that streams a 9 GB trace must not have the
// file unlinked mid-read).
package tracestore

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrNotFound reports a hash the store does not hold.
var ErrNotFound = errors.New("tracestore: trace not found")

// MismatchError reports an upload whose bytes do not hash to the name
// it was uploaded under.
type MismatchError struct {
	Want, Got string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("tracestore: body hashes to %s, not %s", e.Got, e.Want)
}

// TooLargeError reports a single upload bigger than the whole budget.
type TooLargeError struct {
	Bytes, Budget int64
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("tracestore: %d-byte trace exceeds the %d-byte store budget", e.Bytes, e.Budget)
}

// ValidHash reports whether h is a well-formed trace name: exactly 64
// lowercase hex digits.
func ValidHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Config configures a Store.
type Config struct {
	// Dir is the directory holding the blobs; created if absent. Files
	// are named by their hash, so a restarted worker re-adopts whatever
	// a previous process left behind.
	Dir string
	// MaxBytes is the byte budget (0 = 1 GiB).
	MaxBytes int64
	// Now supplies access times for LRU ordering (nil = time.Now).
	// Tests inject a fake clock here.
	Now func() time.Time
}

// Store is a concurrency-safe content-addressed blob directory with
// LRU byte-budget eviction and pinning.
type Store struct {
	dir      string
	maxBytes int64
	now      func() time.Time

	mu sync.Mutex
	//ppcvet:guardedby mu
	ll *list.List // front = most recently used
	//ppcvet:guardedby mu
	m map[string]*list.Element
	//ppcvet:guardedby mu
	bytes int64
	//ppcvet:guardedby mu
	evictions int64
}

// storeEntry is one blob; pins counts open Handles, and a pinned entry
// is skipped by eviction.
type storeEntry struct {
	hash  string
	bytes int64
	pins  int
	atime time.Time
}

// Stats is a point-in-time snapshot for /v1/statsz.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Evictions int64 `json:"evictions"`
}

// New opens (creating if needed) the store directory and adopts any
// blobs already there, oldest first so a fresh upload outranks them.
// Adopted files are trusted to match their names — Put verified them
// when they were written — but anything not named like a hash is
// ignored rather than deleted.
func New(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("tracestore: Config.Dir is required")
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 1 << 30
	}
	if cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("tracestore: negative byte budget %d", cfg.MaxBytes)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{
		dir:      cfg.Dir,
		maxBytes: cfg.MaxBytes,
		now:      cfg.Now,
		ll:       list.New(),
		m:        make(map[string]*list.Element),
	}
	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	type adopted struct {
		hash  string
		bytes int64
		mtime time.Time
	}
	var found []adopted
	for _, de := range ents {
		if de.IsDir() || !ValidHash(de.Name()) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, adopted{de.Name(), info.Size(), info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	s.mu.Lock()
	for _, a := range found {
		e := &storeEntry{hash: a.hash, bytes: a.bytes, atime: a.mtime}
		s.m[a.hash] = s.ll.PushFront(e)
		s.bytes += a.bytes
	}
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// path returns the blob file for hash.
func (s *Store) path(hash string) string { return filepath.Join(s.dir, hash) }

// Put streams r into the store under hash, verifying that the bytes
// actually hash to that name before committing. It reports whether a
// new blob was created (false: the store already held it, and the body
// was drained and discarded after verification). Eviction runs after a
// successful commit; uploads larger than the whole budget are rejected
// up front with a *TooLargeError.
func (s *Store) Put(hash string, r io.Reader) (created bool, err error) {
	if !ValidHash(hash) {
		return false, fmt.Errorf("tracestore: invalid trace hash %q (want 64 lowercase hex digits)", hash)
	}
	// Stream to a temp file while hashing; rename into place only after
	// the digest checks out, so the directory never holds a blob whose
	// name lies about its content.
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return false, fmt.Errorf("tracestore: %w", err)
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(tmp, h), io.LimitReader(r, s.maxBytes+1))
	if err != nil {
		return false, fmt.Errorf("tracestore: reading upload: %w", err)
	}
	if n > s.maxBytes {
		return false, &TooLargeError{Bytes: n, Budget: s.maxBytes}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != hash {
		return false, &MismatchError{Want: hash, Got: got}
	}
	// Flush the bytes before the rename publishes them, so a power loss
	// cannot leave a named blob that is empty or torn.
	if err := tmp.Sync(); err != nil {
		return false, fmt.Errorf("tracestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return false, fmt.Errorf("tracestore: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[hash]; ok {
		// Duplicate upload: keep the existing blob, refresh recency.
		ent := e.Value.(*storeEntry)
		ent.atime = s.now()
		s.ll.MoveToFront(e)
		return false, nil
	}
	if err := os.Rename(tmp.Name(), s.path(hash)); err != nil {
		return false, fmt.Errorf("tracestore: %w", err)
	}
	if err := SyncDir(s.dir); err != nil {
		os.Remove(s.path(hash))
		return false, fmt.Errorf("tracestore: %w", err)
	}
	// The fresh blob rides through the insertion eviction pinned:
	// otherwise a store whose older entries are all pinned would evict
	// the bytes it just verified and report the upload a success anyway.
	// If nothing else is evictable the store runs over budget until a
	// pin drops.
	ent := &storeEntry{hash: hash, bytes: n, atime: s.now(), pins: 1}
	s.m[hash] = s.ll.PushFront(ent)
	s.bytes += n
	s.evictLocked()
	ent.pins--
	return true, nil
}

// evictLocked deletes least-recently-used unpinned blobs until the
// store fits its budget. Pinned entries are skipped: if every remaining
// blob is mid-read the store runs over budget until the pins drop.
func (s *Store) evictLocked() {
	e := s.ll.Back()
	for s.bytes > s.maxBytes && e != nil {
		prev := e.Prev()
		ent := e.Value.(*storeEntry)
		if ent.pins == 0 {
			s.ll.Remove(e)
			delete(s.m, ent.hash)
			s.bytes -= ent.bytes
			s.evictions++
			os.Remove(s.path(ent.hash))
		}
		e = prev
	}
}

// Has reports whether the store holds hash, without touching recency.
func (s *Store) Has(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[hash]
	return ok
}

// Handle is an open, pinned blob. It is an io.ReadSeeker over the raw
// columnar bytes; Close releases the pin. The entry cannot be evicted
// while any Handle on it is open.
type Handle struct {
	f     *os.File
	s     *Store
	hash  string
	bytes int64
	once  sync.Once
}

func (h *Handle) Read(p []byte) (int, error)                { return h.f.Read(p) }
func (h *Handle) Seek(off int64, whence int) (int64, error) { return h.f.Seek(off, whence) }
func (h *Handle) Bytes() int64                              { return h.bytes }

// Close releases the pin and closes the file. Safe to call twice.
func (h *Handle) Close() error {
	err := h.f.Close()
	h.once.Do(func() { h.s.unpin(h.hash) })
	return err
}

// Open returns a pinned read handle on hash, marking it most recently
// used, or ErrNotFound.
func (s *Store) Open(hash string) (*Handle, error) {
	s.mu.Lock()
	e, ok := s.m[hash]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, hash)
	}
	ent := e.Value.(*storeEntry)
	ent.pins++
	ent.atime = s.now()
	s.ll.MoveToFront(e)
	s.mu.Unlock()

	f, err := os.Open(s.path(hash))
	if err != nil {
		s.unpin(hash)
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Handle{f: f, s: s, hash: hash, bytes: ent.bytes}, nil
}

// unpin drops one pin from hash and re-runs eviction in case the store
// was held over budget waiting for it.
func (s *Store) unpin(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[hash]; ok {
		ent := e.Value.(*storeEntry)
		if ent.pins > 0 {
			ent.pins--
		}
	}
	if s.bytes > s.maxBytes {
		s.evictLocked()
	}
}

// Stats snapshots the store for /v1/statsz.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:   s.ll.Len(),
		Bytes:     s.bytes,
		MaxBytes:  s.maxBytes,
		Evictions: s.evictions,
	}
}

// HashBytes returns the store name for a blob: lowercase hex SHA-256.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// SyncDir flushes the directory dir, making a rename into it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// HashReader hashes r to the store naming scheme.
func HashReader(r io.Reader) (string, int64, error) {
	h := sha256.New()
	n, err := io.Copy(h, r)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
