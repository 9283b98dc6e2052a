package tracestore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, concurrency-safe Config.Now: every call
// advances one second, so successive operations get distinct,
// monotonically increasing access times without touching the wall clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// blob returns n deterministic bytes tagged by label, plus their hash.
func blob(label string, n int) ([]byte, string) {
	b := bytes.Repeat([]byte(label), (n+len(label)-1)/len(label))[:n]
	return b, HashBytes(b)
}

func newTestStore(t *testing.T, maxBytes int64) (*Store, string, *fakeClock) {
	t.Helper()
	dir := t.TempDir()
	clk := newFakeClock()
	s, err := New(Config{Dir: dir, MaxBytes: maxBytes, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	return s, dir, clk
}

func mustPut(t *testing.T, s *Store, data []byte, hash string) {
	t.Helper()
	created, err := s.Put(hash, bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Put(%s): %v", hash[:8], err)
	}
	if !created {
		t.Fatalf("Put(%s): expected a new blob", hash[:8])
	}
}

func TestPutOpenRoundTrip(t *testing.T) {
	s, dir, _ := newTestStore(t, 1<<20)
	data, hash := blob("roundtrip", 1000)
	mustPut(t, s, data, hash)

	if !s.Has(hash) {
		t.Fatal("Has = false after Put")
	}
	h, err := s.Open(hash)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	got, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read bytes differ from upload")
	}
	if h.Bytes() != int64(len(data)) {
		t.Fatalf("Bytes() = %d, want %d", h.Bytes(), len(data))
	}
	// The blob is a plain file named by its hash.
	if _, err := os.Stat(filepath.Join(dir, hash)); err != nil {
		t.Fatalf("blob file missing: %v", err)
	}
}

func TestEvictionIsLRU(t *testing.T) {
	s, dir, _ := newTestStore(t, 100)
	a, hashA := blob("aaaa", 40)
	b, hashB := blob("bbbb", 40)
	mustPut(t, s, a, hashA)
	mustPut(t, s, b, hashB)

	// Touch A so B becomes the least recently used entry.
	h, err := s.Open(hashA)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()

	c, hashC := blob("cccc", 40)
	mustPut(t, s, c, hashC)

	if s.Has(hashB) {
		t.Fatal("B should have been evicted (least recently used)")
	}
	if !s.Has(hashA) || !s.Has(hashC) {
		t.Fatal("A (recently read) and C (just written) should survive")
	}
	if _, err := os.Stat(filepath.Join(dir, hashB)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("evicted blob file still on disk: %v", err)
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("store over budget after eviction: %d > %d", st.Bytes, st.MaxBytes)
	}
}

func TestDuplicatePutRefreshesRecency(t *testing.T) {
	s, _, _ := newTestStore(t, 100)
	a, hashA := blob("aaaa", 40)
	b, hashB := blob("bbbb", 40)
	mustPut(t, s, a, hashA)
	mustPut(t, s, b, hashB)

	// Re-upload A: no new blob, but A becomes most recently used.
	created, err := s.Put(hashA, bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("duplicate Put reported created = true")
	}

	c, hashC := blob("cccc", 40)
	mustPut(t, s, c, hashC)
	if s.Has(hashB) || !s.Has(hashA) {
		t.Fatal("duplicate Put should have refreshed A's recency over B")
	}
}

func TestPinnedEntriesAreNeverEvicted(t *testing.T) {
	s, dir, _ := newTestStore(t, 100)
	a, hashA := blob("aaaa", 60)
	mustPut(t, s, a, hashA)

	h, err := s.Open(hashA) // pin A
	if err != nil {
		t.Fatal(err)
	}

	// B pushes the store over budget; A is LRU but pinned, so the store
	// runs over budget rather than unlinking a file mid-read.
	b, hashB := blob("bbbb", 60)
	mustPut(t, s, b, hashB)
	if !s.Has(hashA) {
		t.Fatal("pinned entry was evicted")
	}
	if st := s.Stats(); st.Bytes <= st.MaxBytes {
		t.Fatalf("expected over-budget store while pinned, got %d <= %d", st.Bytes, st.MaxBytes)
	}
	// The pinned handle still reads its full content.
	if got, err := io.ReadAll(h); err != nil || !bytes.Equal(got, a) {
		t.Fatalf("pinned read failed: %v", err)
	}

	// Dropping the pin releases the deferred eviction: A is LRU and goes.
	h.Close()
	if s.Has(hashA) {
		t.Fatal("unpinned LRU entry should be evicted once over budget")
	}
	if !s.Has(hashB) {
		t.Fatal("most recent entry evicted instead of the unpinned LRU one")
	}
	if st := s.Stats(); st.Bytes > st.MaxBytes {
		t.Fatalf("store still over budget after unpin: %d > %d", st.Bytes, st.MaxBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, hashA)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("evicted blob file still on disk")
	}
}

func TestDoubleCloseReleasesOnePin(t *testing.T) {
	s, _, _ := newTestStore(t, 1000)
	a, hashA := blob("aaaa", 10)
	mustPut(t, s, a, hashA)
	h1, err := s.Open(hashA)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.Open(hashA)
	if err != nil {
		t.Fatal(err)
	}
	h1.Close()
	h1.Close() // second Close must not drop h2's pin

	s.mu.Lock()
	pins := s.m[hashA].Value.(*storeEntry).pins
	s.mu.Unlock()
	if pins != 1 {
		t.Fatalf("pins = %d after double close of one handle, want 1", pins)
	}
	h2.Close()
}

func TestPutRejectsMismatch(t *testing.T) {
	s, dir, _ := newTestStore(t, 1<<20)
	data, _ := blob("content", 100)
	_, wrongHash := blob("other", 100)
	_, err := s.Put(wrongHash, bytes.NewReader(data))
	var mismatch *MismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("Put under wrong hash: got %v, want *MismatchError", err)
	}
	if mismatch.Want != wrongHash || mismatch.Got != HashBytes(data) {
		t.Fatalf("mismatch names wrong hashes: %+v", mismatch)
	}
	if s.Has(wrongHash) {
		t.Fatal("mismatched upload committed")
	}
	// The temp file must not linger.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("directory not clean after rejected upload: %v", ents)
	}
}

func TestPutRejectsOversize(t *testing.T) {
	s, _, _ := newTestStore(t, 50)
	data, hash := blob("big", 51)
	_, err := s.Put(hash, bytes.NewReader(data))
	var tooLarge *TooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("oversize Put: got %v, want *TooLargeError", err)
	}
	if tooLarge.Budget != 50 {
		t.Fatalf("TooLargeError budget = %d, want 50", tooLarge.Budget)
	}
}

func TestPutRejectsBadHashName(t *testing.T) {
	s, _, _ := newTestStore(t, 1<<20)
	for _, h := range []string{"", "abc", strings.Repeat("G", 64), strings.Repeat("A", 64)} {
		if _, err := s.Put(h, bytes.NewReader(nil)); err == nil {
			t.Fatalf("Put(%q) accepted an invalid hash", h)
		}
	}
}

func TestOpenNotFound(t *testing.T) {
	s, _, _ := newTestStore(t, 1<<20)
	_, unknown := blob("never-stored", 8)
	_, err := s.Open(unknown)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open of unknown hash: got %v, want ErrNotFound", err)
	}
}

func TestNewAdoptsExistingBlobs(t *testing.T) {
	dir := t.TempDir()
	a, hashA := blob("adopt-a", 30)
	b, hashB := blob("adopt-b", 30)
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, f := range []struct {
		hash string
		data []byte
	}{{hashA, a}, {hashB, b}} {
		p := filepath.Join(dir, f.hash)
		if err := os.WriteFile(p, f.data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes pin the adoption (= LRU) order: A older than B.
		if err := os.Chtimes(p, base, base.Add(time.Duration(i)*time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	// Junk that is not named like a hash is ignored, not deleted.
	junk := filepath.Join(dir, "README")
	if err := os.WriteFile(junk, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	clk := newFakeClock()
	s, err := New(Config{Dir: dir, MaxBytes: 100, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(hashA) || !s.Has(hashB) {
		t.Fatal("existing blobs not adopted")
	}
	if st := s.Stats(); st.Entries != 2 || st.Bytes != 60 {
		t.Fatalf("adopted stats = %+v", st)
	}
	if _, err := os.Stat(junk); err != nil {
		t.Fatal("non-blob file was deleted during adoption")
	}

	// A fresh upload outranks both adopted blobs; the oldest mtime (A)
	// is evicted first.
	c, hashC := blob("adopt-c", 50)
	mustPut(t, s, c, hashC)
	if s.Has(hashA) {
		t.Fatal("oldest adopted blob should be evicted first")
	}
	if !s.Has(hashB) || !s.Has(hashC) {
		t.Fatal("wrong blob evicted")
	}
}

func TestNewEvictsOverBudgetAdoption(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		data, hash := blob(fmt.Sprintf("over-%d", i), 40)
		if err := os.WriteFile(filepath.Join(dir, hash), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Dir: dir, MaxBytes: 100, Now: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Bytes > st.MaxBytes || st.Entries != 2 {
		t.Fatalf("adoption did not enforce the budget: %+v", st)
	}
}

func TestHashHelpersAgree(t *testing.T) {
	data, _ := blob("helpers", 500)
	want := HashBytes(data)
	got, n, err := HashReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got != want || n != int64(len(data)) {
		t.Fatalf("HashReader = (%s, %d), want (%s, %d)", got, n, want, len(data))
	}
	if !ValidHash(want) {
		t.Fatal("HashBytes output fails ValidHash")
	}
}

// TestConcurrentPutOpenStress hammers one small-budget store from many
// goroutines mixing uploads, duplicate uploads, reads, probes, and
// stats. Run under -race this is the store's concurrency-safety proof;
// the invariant checked at the end is that every surviving blob still
// reads back bytes matching its name.
func TestConcurrentPutOpenStress(t *testing.T) {
	s, _, _ := newTestStore(t, 2000)
	const blobs = 8
	data := make([][]byte, blobs)
	hashes := make([]string, blobs)
	for i := range data {
		data[i], hashes[i] = blob(fmt.Sprintf("stress-%d-", i), 300+i)
	}

	const goroutines = 16
	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*31 + i*7) % blobs
				switch (g + i) % 4 {
				case 0:
					if _, err := s.Put(hashes[k], bytes.NewReader(data[k])); err != nil {
						t.Errorf("Put: %v", err)
					}
				case 1:
					h, err := s.Open(hashes[k])
					if errors.Is(err, ErrNotFound) {
						continue // evicted or not yet uploaded
					}
					if err != nil {
						t.Errorf("Open: %v", err)
						continue
					}
					got, err := io.ReadAll(h)
					if err != nil || !bytes.Equal(got, data[k]) {
						t.Errorf("pinned read of %s corrupted (err %v)", hashes[k][:8], err)
					}
					h.Close()
				case 2:
					s.Has(hashes[k])
				default:
					if st := s.Stats(); st.Bytes < 0 {
						t.Errorf("negative byte accounting: %+v", st)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("store over budget with no pins held: %d > %d", st.Bytes, st.MaxBytes)
	}
	for i, h := range hashes {
		if !s.Has(h) {
			continue
		}
		rd, err := s.Open(h)
		if err != nil {
			t.Fatalf("surviving blob %s: %v", h[:8], err)
		}
		got, err := io.ReadAll(rd)
		rd.Close()
		if err != nil || !bytes.Equal(got, data[i]) {
			t.Fatalf("surviving blob %s corrupted", h[:8])
		}
	}
}

// TestSyncDir: flushing a directory succeeds, and a missing one fails
// rather than reporting a rename durable.
func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatalf("SyncDir(%s): %v", dir, err)
	}
	if err := SyncDir(filepath.Join(dir, "absent")); err == nil {
		t.Error("SyncDir of a missing directory succeeded")
	}
}
