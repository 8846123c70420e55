// Package client is the Go client for the rescheduling service's v2 HTTP
// API (internal/service): async job submission with polling, and live
// cluster sessions. All calls take a context, and Submit forwards the
// context deadline to the server as the solve budget (unless the request
// sets TimeoutMS itself) — so a caller that can only afford 50 ms asks for,
// and gets, the best plan computable in 50 ms.
package client

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
	"time"

	"vmr2l/internal/service"
)

// Client talks to one rescheduling server.
type Client struct {
	baseURL string
	http    *http.Client
	poll    time.Duration
	// 503 backpressure retry policy (see do): up to retries extra attempts
	// with exponential backoff from retryBase, capped at retryCap.
	retries   int
	retryBase time.Duration
	retryCap  time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the default http.Client (e.g. to set transport
// timeouts or test doubles).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithPollInterval sets the status-poll cadence used by Wait (default
// 50 ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) { c.poll = d }
}

// New builds a client for the server at baseURL (e.g. "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL:   strings.TrimRight(baseURL, "/"),
		http:      http.DefaultClient,
		poll:      50 * time.Millisecond,
		retries:   3,
		retryBase: 50 * time.Millisecond,
		retryCap:  time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// StatusError is returned for non-2xx responses, preserving the HTTP code
// so callers can distinguish backpressure (503) from bad requests (400).
type StatusError struct {
	Code    int
	Message string
	// RetryAfter is the server's Retry-After hint, when the response carried
	// a parseable one (the service computes it from its queue drain rate);
	// zero means no hint. The retry loop honors it in place of its own
	// backoff.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Code, e.Message)
}

// parseRetryAfter interprets a Retry-After header value: delay-seconds or an
// HTTP-date (RFC 9110 §10.2.3). Returns 0 for absent or malformed values —
// backpressure handling must not fail on a bad hint.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// do issues one API call, retrying 503 backpressure responses with capped
// exponential backoff (the server sheds load before doing any work, so a
// retried request is never a duplicate). Other errors return immediately.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var encoded []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		encoded = b
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.once(ctx, method, path, encoded, out)
		var se *StatusError
		if err == nil || attempt >= c.retries ||
			!errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			return err
		}
		// Shift from the base each attempt, saturating at the cap (an
		// unclamped base<<attempt overflows for large retry budgets).
		delay := c.retryBase
		for i := 0; i < attempt && delay < c.retryCap; i++ {
			delay <<= 1
		}
		if delay > c.retryCap {
			delay = c.retryCap
		}
		// A server Retry-After hint knows the queue's drain rate; honor it
		// when it asks for a longer wait than the blind backoff (uncapped —
		// the context deadline still bounds the total wait). A hint shorter
		// than the backoff never shrinks it: a past HTTP-date or a skewed
		// server clock would otherwise collapse the delay to ~zero and turn
		// the retry loop into a hot spin against an overloaded server.
		if se.RetryAfter > delay {
			delay = se.RetryAfter
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}

// once is a single HTTP round-trip.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var ae apiError
		_ = json.NewDecoder(resp.Body).Decode(&ae)
		return &StatusError{
			Code:       resp.StatusCode,
			Message:    ae.Error,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}

// withCtxBudget copies the context deadline into TimeoutMS when the caller
// didn't set one, leaving headroom for the HTTP round-trip and (for async
// jobs) the status polls that follow the solve.
func withCtxBudget(ctx context.Context, req service.PlanRequest) service.PlanRequest {
	if req.TimeoutMS > 0 {
		return req
	}
	if deadline, ok := ctx.Deadline(); ok {
		if ms := int(time.Until(deadline).Milliseconds() * 9 / 10); ms > 0 {
			req.TimeoutMS = ms
		}
	}
	return req
}

// Submit enqueues an async solve via POST /v2/jobs and returns the job id.
// A context deadline becomes the server-side solve budget when TimeoutMS is
// unset. A *StatusError with Code 503 means the server's queue is full;
// retry after a backoff.
func (c *Client) Submit(ctx context.Context, req service.PlanRequest) (string, error) {
	var out service.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v2/jobs", withCtxBudget(ctx, req), &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Job fetches the current status of a submitted job.
func (c *Client) Job(ctx context.Context, id string) (*service.JobStatus, error) {
	var out service.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v2/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Wait polls a job until it reaches a terminal state or ctx expires. A
// failed job is returned with a non-nil error wrapping the server-side
// message; the status is still returned for inspection.
func (c *Client) Wait(ctx context.Context, id string) (*service.JobStatus, error) {
	t := time.NewTicker(c.poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case service.JobSucceeded:
			return st, nil
		case service.JobFailed:
			return st, fmt.Errorf("client: job %s failed: %s", id, st.Error)
		}
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("client: waiting for job %s: %w", id, ctx.Err())
		case <-t.C:
		}
	}
}
