package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"ppcsim"
	"ppcsim/internal/serve"
)

// Backend is one worker in the fleet: it runs a single /v1/run body and
// returns the worker's exact response bytes (which are byte-identical
// across the fleet for a given key, because the simulator is
// deterministic and the canonical key pins every outcome-changing
// option). meta carries the run's transport metadata: whether the
// worker's result cache answered and, for streamed cells, the refs/sec
// and peak-heap observations.
type Backend interface {
	// Name identifies the backend on the hash ring and in stats. Names
	// must be unique within a coordinator.
	Name() string
	Run(ctx context.Context, body []byte) (result []byte, meta serve.RunMeta, err error)
}

// TraceBackend is the optional trace-store surface of a Backend. Both
// built-in backends implement it; the coordinator uses it to pre-flight
// trace_hash cells — probing which workers hold a hash and replicating
// the blob to the ones that don't before any cell is scheduled.
type TraceBackend interface {
	// TraceHas probes the worker's store for hash.
	TraceHas(ctx context.Context, hash string) (bool, error)
	// TracePut streams a blob into the worker's store under hash.
	TracePut(ctx context.Context, hash string, r io.Reader) error
	// TraceGet opens the worker's blob for reading; the caller closes it.
	TraceGet(ctx context.Context, hash string) (io.ReadCloser, error)
}

// errKind classifies a cell failure for the scheduler's retry logic.
type errKind int

const (
	// errTransient: the backend is unreachable or failed internally; mark
	// it dead for this job and reroute its cells.
	errTransient errKind = iota
	// errBusy: the backend applied backpressure (429); retry the cell on
	// the same backend after a pause.
	errBusy
	// errPermanent: the cell itself is invalid (400); retrying anywhere
	// is pointless.
	errPermanent
)

// cellError is a classified failure from a Backend.Run call. status is
// the HTTP status the worker answered, or would have answered, with; the
// coordinator relays it for a permanent failure.
type cellError struct {
	kind   errKind
	status int
	err    error
}

// workerFailure classifies a worker's answer at status.
func workerFailure(status int, err error) *cellError {
	return &cellError{kind: kindForStatus(status), status: status, err: err}
}

func (e *cellError) Error() string { return e.err.Error() }
func (e *cellError) Unwrap() error { return e.err }

func classify(err error) *cellError {
	var ce *cellError
	if errors.As(err, &ce) {
		return ce
	}
	return &cellError{kind: errTransient, err: err}
}

// HTTPBackend drives a remote ppc-serve worker over its v1 API.
type HTTPBackend struct {
	name    string
	baseURL string
	client  *http.Client
}

// NewHTTPBackend wraps the worker at baseURL (scheme://host:port). A
// nil client uses http.DefaultClient. The name defaults to the URL.
func NewHTTPBackend(name, baseURL string, client *http.Client) *HTTPBackend {
	if client == nil {
		client = http.DefaultClient
	}
	if name == "" {
		name = baseURL
	}
	return &HTTPBackend{name: name, baseURL: strings.TrimRight(baseURL, "/"), client: client}
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.name }

// Run implements Backend: POST {base}/v1/run, classifying the response
// for the retry scheduler. A request recorded in ctx (serve.WithRequest)
// is ignored: the remote worker decodes its own copy of body.
func (b *HTTPBackend) Run(ctx context.Context, body []byte) ([]byte, serve.RunMeta, error) {
	var meta serve.RunMeta
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.baseURL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, meta, &cellError{kind: errPermanent, status: http.StatusInternalServerError, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		// Connection refused, reset, or timeout: the worker is gone.
		return nil, meta, &cellError{kind: errTransient, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, meta, &cellError{kind: errTransient, err: err}
	}
	if resp.StatusCode == http.StatusOK {
		meta.CacheHit = resp.Header.Get("X-Cache") == "hit"
		if resp.Header.Get("X-Streamed") == "1" {
			meta.Streamed = true
			meta.RefsPerSec, _ = strconv.ParseFloat(resp.Header.Get("X-Refs-Per-Sec"), 64)
			meta.PeakInuseBytes, _ = strconv.ParseInt(resp.Header.Get("X-Peak-Inuse-Bytes"), 10, 64)
		}
		return data, meta, nil
	}
	// Relay the worker's status and envelope message verbatim, so a
	// client sees what the worker reported, as it would from an embedded
	// worker.
	var env serve.ErrorEnvelope
	if jsonErr := json.Unmarshal(data, &env); jsonErr != nil || env.Error.Message == "" {
		return nil, meta, workerFailure(resp.StatusCode, fmt.Errorf("worker %s: status %d", b.name, resp.StatusCode))
	}
	if env.Error.Field != "" {
		return nil, meta, workerFailure(resp.StatusCode,
			&workerConfigError{msg: env.Error.Message, cfg: &ppcsim.ConfigError{Field: env.Error.Field}})
	}
	return nil, meta, workerFailure(resp.StatusCode, errors.New(env.Error.Message))
}

// workerConfigError is a remote worker's error envelope that named a
// field. Its text is the worker's message verbatim, and it unwraps to a
// *ppcsim.ConfigError with that field, so the coordinator relays the
// envelope an embedded worker's own ConfigError would render.
type workerConfigError struct {
	msg string
	cfg *ppcsim.ConfigError
}

func (e *workerConfigError) Error() string { return e.msg }
func (e *workerConfigError) Unwrap() error { return e.cfg }

// TraceHas implements TraceBackend via HEAD /v1/traces/<hash>.
func (b *HTTPBackend) TraceHas(ctx context.Context, hash string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, b.baseURL+"/v1/traces/"+hash, nil)
	if err != nil {
		return false, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("coord: worker %s trace probe: status %d", b.name, resp.StatusCode)
}

// TracePut implements TraceBackend via PUT /v1/traces/<hash>.
func (b *HTTPBackend) TracePut(ctx context.Context, hash string, r io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, b.baseURL+"/v1/traces/"+hash, r)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		return nil
	}
	var env serve.ErrorEnvelope
	if jsonErr := json.Unmarshal(data, &env); jsonErr == nil && env.Error.Message != "" {
		return fmt.Errorf("coord: worker %s trace upload: %s", b.name, env.Error.Message)
	}
	return fmt.Errorf("coord: worker %s trace upload: status %d", b.name, resp.StatusCode)
}

// TraceGet implements TraceBackend via GET /v1/traces/<hash>.
func (b *HTTPBackend) TraceGet(ctx context.Context, hash string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.baseURL+"/v1/traces/"+hash, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("coord: worker %s trace download: status %d", b.name, resp.StatusCode)
	}
	return resp.Body, nil
}

func kindForStatus(status int) errKind {
	switch {
	case status == http.StatusTooManyRequests:
		return errBusy
	case status == http.StatusGatewayTimeout:
		// A deterministic simulation that exceeded its deadline here will
		// exceed it on every other worker too; don't punish the fleet.
		return errPermanent
	case status >= 400 && status < 500:
		return errPermanent
	default:
		return errTransient
	}
}

// LocalBackend runs cells on an in-process serve.Server — the embedded
// single-process mode, where one binary hosts the coordinator and its
// whole worker fleet with no sockets in between.
type LocalBackend struct {
	name string
	srv  *serve.Server
}

// NewLocalBackend wraps an in-process worker server.
func NewLocalBackend(name string, srv *serve.Server) *LocalBackend {
	return &LocalBackend{name: name, srv: srv}
}

// Name implements Backend.
func (b *LocalBackend) Name() string { return b.name }

// Server returns the wrapped worker, e.g. for stats or shutdown.
func (b *LocalBackend) Server() *serve.Server { return b.srv }

// Run implements Backend via serve.Server.RunJSONMeta, classifying
// errors exactly as the HTTP status mapping would. When ctx records the
// coordinator's decoding of this very body (serve.WithRequest), it runs
// that request and skips the second decode.
func (b *LocalBackend) Run(ctx context.Context, body []byte) ([]byte, serve.RunMeta, error) {
	var (
		val  []byte
		meta serve.RunMeta
		err  error
	)
	if req, key, ok := serve.RequestFor(ctx, body); ok {
		val, meta, err = b.srv.RunRequest(req, key)
	} else {
		val, meta, err = b.srv.RunJSONMeta(body)
	}
	if err != nil {
		return nil, serve.RunMeta{}, workerFailure(serve.StatusForError(err), err)
	}
	return val, meta, nil
}

// TraceHas implements TraceBackend against the embedded server's store.
func (b *LocalBackend) TraceHas(ctx context.Context, hash string) (bool, error) {
	st, err := b.srv.TraceStore()
	if err != nil {
		return false, err
	}
	return st.Has(hash), nil
}

// TracePut implements TraceBackend against the embedded server's store.
func (b *LocalBackend) TracePut(ctx context.Context, hash string, r io.Reader) error {
	st, err := b.srv.TraceStore()
	if err != nil {
		return err
	}
	_, err = st.Put(hash, r)
	return err
}

// TraceGet implements TraceBackend against the embedded server's store.
func (b *LocalBackend) TraceGet(ctx context.Context, hash string) (io.ReadCloser, error) {
	st, err := b.srv.TraceStore()
	if err != nil {
		return nil, err
	}
	return st.Open(hash)
}
