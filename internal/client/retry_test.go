package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vmr2l/internal/service"
)

// withRetry sets the 503-backpressure retry policy: up to retries extra
// attempts with exponential backoff starting at base and capped at max;
// retries = 0 disables.
func withRetry(retries int, base, max time.Duration) Option {
	return func(c *Client) { c.retries, c.retryBase, c.retryCap = retries, base, max }
}

// flakyServer returns 503 for the first fails requests, then delegates to
// ok. It counts total attempts.
func flakyServer(t *testing.T, fails int, ok http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= int64(fails) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "job queue full"})
			return
		}
		ok(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &attempts
}

func TestClientRetriesBackpressure(t *testing.T) {
	srv, attempts := flakyServer(t, 2, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(service.JobStatus{ID: "job-1", State: service.JobQueued})
	})
	cl := New(srv.URL, withRetry(3, time.Millisecond, 8*time.Millisecond))
	id, err := cl.Submit(context.Background(), service.PlanRequest{MNL: 1})
	if err != nil {
		t.Fatalf("submit should survive two 503s: %v", err)
	}
	if id != "job-1" {
		t.Fatalf("id = %q", id)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two 503s + success)", got)
	}
}

func TestClientRetryGivesUpAfterCap(t *testing.T) {
	srv, attempts := flakyServer(t, 1000, nil)
	cl := New(srv.URL, withRetry(2, time.Millisecond, 4*time.Millisecond))
	_, err := cl.Submit(context.Background(), service.PlanRequest{MNL: 1})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("want StatusError 503 after retries, got %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (initial + 2 retries)", got)
	}
}

func TestClientRetryDisabled(t *testing.T) {
	srv, attempts := flakyServer(t, 1000, nil)
	cl := New(srv.URL, withRetry(0, time.Millisecond, time.Millisecond))
	if _, err := cl.Submit(context.Background(), service.PlanRequest{MNL: 1}); err == nil {
		t.Fatal("want error")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 with retries disabled", got)
	}
}

func TestClientRetryDoesNotTouchOtherErrors(t *testing.T) {
	srv, attempts := flakyServer(t, 0, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "mnl must be positive"})
	})
	cl := New(srv.URL, withRetry(5, time.Millisecond, time.Millisecond))
	_, err := cl.Submit(context.Background(), service.PlanRequest{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("want StatusError 400, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (400 is not retryable)", got)
	}
}

func TestClientRetryHonorsContext(t *testing.T) {
	srv, _ := flakyServer(t, 1000, nil)
	cl := New(srv.URL, withRetry(50, 50*time.Millisecond, time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cl.Submit(ctx, service.PlanRequest{MNL: 1}); err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ignored context: ran %v", elapsed)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"5", 5 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"soon", 0},
		{"1.5", 0}, // delay-seconds is an integer; fractions are malformed
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// HTTP-date form: a timestamp in the future yields a positive delay, a
	// past one yields zero.
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 30*time.Second {
		t.Errorf("parseRetryAfter(future date) = %v", got)
	}
	past := time.Now().Add(-30 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Errorf("parseRetryAfter(past date) = %v, want 0", got)
	}
}

// TestClientHonorsRetryAfter pins that an explicit server hint replaces the
// client's own backoff: with a 1 ms base the retry would otherwise fire
// nearly instantly, so an observed ~1 s gap proves the Retry-After second
// was honored.
func TestClientHonorsRetryAfter(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "job queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(service.JobStatus{ID: "job-1", State: service.JobQueued})
	}))
	t.Cleanup(srv.Close)
	cl := New(srv.URL, withRetry(2, time.Millisecond, 2*time.Millisecond))
	start := time.Now()
	id, err := cl.Submit(context.Background(), service.PlanRequest{MNL: 1})
	if err != nil || id != "job-1" {
		t.Fatalf("submit: id=%q err=%v", id, err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry fired after %v; the 1 s Retry-After hint was ignored", elapsed)
	}
	// The error surfaced to callers carries the hint too.
	srv2, _ := flakyServerRetryAfter(t, "2")
	cl2 := New(srv2.URL, withRetry(0, time.Millisecond, time.Millisecond))
	_, err = cl2.Submit(context.Background(), service.PlanRequest{MNL: 1})
	var se *StatusError
	if !errors.As(err, &se) || se.RetryAfter != 2*time.Second {
		t.Fatalf("StatusError.RetryAfter = %+v, want 2s hint", err)
	}
}

// flakyServerRetryAfter always 503s with the given Retry-After value.
func flakyServerRetryAfter(t *testing.T, hint string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Retry-After", hint)
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "job queue full"})
	}))
	t.Cleanup(srv.Close)
	return srv, &attempts
}

// TestClientRetryAfterFloorsAtBackoff pins the clamp semantics: a
// Retry-After hint can only lengthen the wait, never shorten it below the
// computed backoff. A past HTTP-date (skewed server clock) or a hint
// smaller than the backoff must not collapse the delay toward zero and hot
// spin against an overloaded server.
func TestClientRetryAfterFloorsAtBackoff(t *testing.T) {
	// Past HTTP-date: parses to zero, so the computed backoff must hold.
	past := time.Now().Add(-30 * time.Second).UTC().Format(http.TimeFormat)
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", past)
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "job queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(service.JobStatus{ID: "job-1", State: service.JobQueued})
	}))
	t.Cleanup(srv.Close)
	cl := New(srv.URL, withRetry(2, 200*time.Millisecond, time.Second))
	start := time.Now()
	if _, err := cl.Submit(context.Background(), service.PlanRequest{MNL: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("retry fired after %v; a past Retry-After date collapsed the backoff", elapsed)
	}

	// Positive hint below the backoff: the larger backoff wins.
	attempts.Store(0)
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "job queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(service.JobStatus{ID: "job-2", State: service.JobQueued})
	}))
	t.Cleanup(srv2.Close)
	cl2 := New(srv2.URL, withRetry(2, 1500*time.Millisecond, 2*time.Second))
	start = time.Now()
	if _, err := cl2.Submit(context.Background(), service.PlanRequest{MNL: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 1400*time.Millisecond {
		t.Fatalf("retry fired after %v; a 1 s hint shrank the 1.5 s backoff floor", elapsed)
	}
}
