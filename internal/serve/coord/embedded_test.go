package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ppcsim"
	"ppcsim/internal/load"
	"ppcsim/internal/serve"
)

// TestLocalBackendTakesRecordedRequest: an embedded worker runs the
// request recorded for its very body without decoding the body, and
// decodes a body that only equals the recorded one.
func TestLocalBackendTakesRecordedRequest(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	b := NewLocalBackend("local-0", srv)
	text := inlineTrace("rec", 32, 200)
	demand := []byte(fmt.Sprintf(`{"trace_text":%q,"algorithm":"demand"}`, text))
	aggressive := []byte(fmt.Sprintf(`{"trace_text":%q,"algorithm":"aggressive","disks":2}`, text))
	want := map[string][]byte{}
	for name, body := range map[string][]byte{"demand": demand, "aggressive": aggressive} {
		ref := serve.New(serve.Config{Workers: 1})
		val, _, err := ref.RunJSONMeta(body)
		ref.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[name] = val
	}
	if bytes.Equal(want["demand"], want["aggressive"]) {
		t.Fatal("the two requests give the same result; the test cannot tell them apart")
	}
	req, err := serve.ParseRequest(aggressive)
	if err != nil {
		t.Fatal(err)
	}

	// Recorded for this body: the run follows the record, not the bytes.
	ctx := serve.WithRequest(context.Background(), demand, req, req.Key())
	got, _, err := b.Run(ctx, demand)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want["aggressive"]) {
		t.Error("a body with a recorded request did not run the recorded request")
	}
	// Not even valid JSON: nothing decodes the body.
	junk := []byte("not json")
	if got, _, err = b.Run(serve.WithRequest(context.Background(), junk, req, req.Key()), junk); err != nil {
		t.Fatalf("a recorded request over an undecodable body failed: %v", err)
	}
	if !bytes.Equal(got, want["aggressive"]) {
		t.Error("an undecodable body with a recorded request did not run the recorded request")
	}

	// Recorded for another slice with equal content, or for a prefix of
	// the same array: the body is decoded.
	for name, body := range map[string][]byte{
		"copy":   append([]byte(nil), demand...),
		"longer": append(demand[:len(demand):len(demand)], ' '),
	} {
		got, _, err := b.Run(ctx, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want["demand"]) {
			t.Errorf("%s: a body the record was not made for ran the recorded request", name)
		}
	}
	prefix := append(demand[:len(demand):len(demand)], "  "...)
	if _, _, ok := serve.RequestFor(serve.WithRequest(context.Background(), prefix[:len(demand)], req, req.Key()), prefix); ok {
		t.Error("a record for a prefix of the body's array was taken for the whole body")
	}
	if _, _, ok := serve.RequestFor(context.Background(), demand); ok {
		t.Error("a context without a record returned one")
	}
	if _, _, err := b.Run(serve.WithRequest(context.Background(), junk, req, req.Key()), append([]byte(nil), junk...)); err == nil {
		t.Error("an undecodable copy of a recorded body did not fail to decode")
	}
}

// response is what a client sees of one /v1/run answer.
type response struct {
	status int
	cache  string
	worker string
	body   []byte
}

func postRun(t *testing.T, url string, body []byte) response {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("X-Worker"), data}
}

// waitOutShortDeadlines runs the simulator, except that a run given
// less than a second waits for its deadline and times out, so a body
// with a short timeout_ms fails the same way on every worker.
func waitOutShortDeadlines(ctx context.Context, opts ppcsim.Options) (ppcsim.Result, error) {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < time.Second {
		<-ctx.Done()
		return ppcsim.Result{}, fmt.Errorf("%w: %w", ppcsim.ErrCanceled, ctx.Err())
	}
	return ppcsim.RunContext(ctx, opts)
}

// TestEmbeddedMatchesHTTPWorkers: a coordinator over embedded workers,
// which take its decoded requests, answers every /v1/run body and job
// cell exactly as one over HTTP workers, which decode their own copies:
// the same status, X-Cache and worker, and byte-identical bodies.
func TestEmbeddedMatchesHTTPWorkers(t *testing.T) {
	const maxBody = 64 << 10
	scfg := serve.Config{Workers: 1, Runner: waitOutShortDeadlines}
	embedded, closeAll := NewEmbeddedBackends(2, scfg)
	defer closeAll()
	var remote []Backend
	for i := 0; i < 2; i++ {
		srv := serve.New(scfg)
		ts := httptest.NewServer(srv.Handler())
		defer func() { ts.Close(); srv.Close() }()
		// The embedded workers' names, so both rings route alike.
		remote = append(remote, NewHTTPBackend(fmt.Sprintf("local-%d", i), ts.URL, nil))
	}
	urls := map[string]string{}
	for name, backends := range map[string][]Backend{"embedded": embedded, "http": remote} {
		c, err := New(Config{Backends: backends, MaxBodyBytes: maxBody})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(c.Handler())
		defer ts.Close()
		urls[name] = ts.URL
	}

	gen, err := load.NewGenerator(&load.LoadSpec{Seed: 3, ColdRefs: 300, OversizeBytes: 2 * maxBody})
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		body []byte
	}
	var runs []run
	for i := 0; i < 3; i++ {
		cold := gen.Next(load.Mix{Cold: 1})
		runs = append(runs, run{fmt.Sprintf("cold %d", i), cold.Body}, run{fmt.Sprintf("cold %d again", i), cold.Body})
		runs = append(runs, run{fmt.Sprintf("columnar %d", i), gen.Next(load.Mix{Columnar: 1}).Body})
	}
	bundled := []byte(`{"trace":"xds","algorithm":"forestall","disks":2,"timeout_ms":60000}`)
	runs = append(runs, run{"bundled", bundled}, run{"bundled again", bundled})
	for _, kind := range load.MalformedKinds {
		runs = append(runs, run{"malformed " + kind, gen.MalformedBody(kind)})
	}
	text := inlineTrace("bad", 16, 40)
	runs = append(runs,
		run{"bad trace line", []byte(fmt.Sprintf(`{"trace_text":%q,"algorithm":"demand"}`, text+"q 1 2\n"))},
		run{"block out of range", []byte(fmt.Sprintf(`{"trace_text":%q,"algorithm":"demand"}`, text+"r 99 0.1\n"))},
		run{"window over an offline algorithm", []byte(fmt.Sprintf(`{"trace_text":%q,"algorithm":"reverse-aggressive","window":8}`, text))},
		run{"bad JSON", []byte(`{"trace":`)},
		run{"timeout", []byte(`{"trace":"xds","algorithm":"aggressive","timeout_ms":300}`)},
	)
	for _, r := range runs {
		e, h := postRun(t, urls["embedded"], r.body), postRun(t, urls["http"], r.body)
		if e.status != h.status || e.cache != h.cache || e.worker != h.worker || !bytes.Equal(e.body, h.body) {
			t.Errorf("%s: embedded %d %q %q %s\nhttp %d %q %q %s", r.name,
				e.status, e.cache, e.worker, e.body, h.status, h.cache, h.worker, h.body)
		}
		if r.name == "timeout" && e.status != http.StatusGatewayTimeout {
			t.Errorf("timeout: status %d, want %d", e.status, http.StatusGatewayTimeout)
		}
	}

	jobs := []string{
		jobBody(t),
		fmt.Sprintf(`{"trace_text":%q,"algorithms":["demand","reverse-aggressive"],"windows":[8],"timeout_ms":60000}`, text),
		`{"trace":"xds","algorithms":["aggressive"],"timeout_ms":300}`,
	}
	for i, body := range jobs {
		e, h := submitJob(t, urls["embedded"], body), submitJob(t, urls["http"], body)
		if e.status != http.StatusOK || h.status != http.StatusOK {
			t.Fatalf("job %d: status embedded %d, http %d", i, e.status, h.status)
		}
		if len(e.cells) != len(h.cells) {
			t.Fatalf("job %d: %d cells embedded, %d over http", i, len(e.cells), len(h.cells))
		}
		byIndex := map[int]CellRecord{}
		for _, rec := range h.cells {
			byIndex[rec.Index] = rec
		}
		for _, ec := range e.cells {
			hc := byIndex[ec.Index]
			ej, _ := json.Marshal(ec.Error)
			hj, _ := json.Marshal(hc.Error)
			if ec.Key != hc.Key || ec.Worker != hc.Worker || ec.Cache != hc.Cache ||
				!bytes.Equal(ec.Result, hc.Result) || !bytes.Equal(ej, hj) {
				t.Errorf("job %d cell %d: embedded %+v %s\nhttp %+v %s", i, ec.Index, ec, ej, hc, hj)
			}
			if timedOut := ec.Error != nil && ec.Error.Code == serve.CodeTimeout; timedOut != (i == 2) {
				t.Errorf("job %d cell %d: error %s, want a timeout exactly in job 2", i, ec.Index, ej)
			}
		}
	}
}
