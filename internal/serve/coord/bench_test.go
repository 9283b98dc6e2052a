package coord

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"ppcsim/internal/load"
	"ppcsim/internal/serve"
)

// BenchmarkColdRun serves unique cold /v1/run bodies, each an inline
// 2,000-reference ppctrace text from load.Generator, through a
// coordinator with one embedded worker: the request path whose body the
// coordinator decodes once for itself and its worker.
func BenchmarkColdRun(b *testing.B) {
	backends, closeAll := NewEmbeddedBackends(1, serve.Config{Workers: 1})
	defer closeAll()
	c, err := New(Config{Backends: backends})
	if err != nil {
		b.Fatal(err)
	}
	h := c.Handler()
	gen, err := load.NewGenerator(&load.LoadSpec{Seed: 1, ColdRefs: 2000})
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = gen.Next(load.Mix{Cold: 1}).Body
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(bodies[i])))
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			b.Fatalf("status %d, X-Cache %q: %s", w.Code, w.Header().Get("X-Cache"), w.Body.Bytes())
		}
	}
}
