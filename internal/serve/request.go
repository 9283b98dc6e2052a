package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"ppcsim"
)

// Request is the JSON body of POST /v1/run: one RunSpec (the shared
// simulation schema, flattened into the same object) plus the
// transport-only timeout. See RunSpec for the field semantics.
type Request struct {
	RunSpec
	// TimeoutMs caps this request's simulation time (host milliseconds).
	// It is clamped to the server's DefaultTimeout when that is positive
	// and applies as given when it is not. It is excluded from the
	// result-cache key: two requests for the same simulation share one
	// run and one cache entry regardless of their deadlines.
	TimeoutMs float64 `json:"timeout_ms,omitempty"`
}

// ParseRequest decodes and boundary-checks a /v1/run body. Decoding is
// strict (unknown fields are rejected, so typos fail loudly instead of
// simulating the wrong configuration). Validation failures are
// *ppcsim.ConfigError values naming the offending field, which the
// handler renders as the 400 error envelope.
func ParseRequest(body []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, &ppcsim.ConfigError{Field: "Request", Reason: fmt.Sprintf("bad JSON: %v", err)}
	}
	// Reject trailing garbage after the JSON object.
	if dec.More() {
		return nil, &ppcsim.ConfigError{Field: "Request", Reason: "trailing data after JSON body"}
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.TimeoutMs < 0 {
		return nil, &ppcsim.ConfigError{Field: "TimeoutMs", Reason: fmt.Sprintf("must be non-negative, got %g", req.TimeoutMs)}
	}
	return &req, nil
}

// recorded is a request decoded from body, as WithRequest stores it.
type recorded struct {
	body []byte
	req  *Request
	key  string
}

type recordedKey struct{}

// WithRequest returns a copy of ctx that records req and its key as the
// decoding of body. A coordinator that has parsed a body passes this
// context to an in-process worker, which then takes req instead of
// decoding body again (see RequestFor).
func WithRequest(ctx context.Context, body []byte, req *Request, key string) context.Context {
	return context.WithValue(ctx, recordedKey{}, &recorded{body: body, req: req, key: key})
}

// RequestFor returns the request and key ctx records for body, if any.
// The record counts only for the very slice it was made for, the same
// backing array and length, which costs no comparison of the bytes: a
// wrapper that passes a different body, even one with equal content,
// gets ok false and decodes its body itself.
func RequestFor(ctx context.Context, body []byte) (req *Request, key string, ok bool) {
	rec, _ := ctx.Value(recordedKey{}).(*recorded)
	if rec == nil || len(body) == 0 || len(rec.body) != len(body) || &rec.body[0] != &body[0] {
		return nil, "", false
	}
	return rec.req, rec.key, true
}
