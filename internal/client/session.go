package client

import (
	"context"
	"net/http"

	"vmr2l/internal/service"
)

// Session is a handle to a live cluster session on the server (the
// /v2/clusters API): a registered cluster that drifts under VMS churn while
// session-scoped reschedule jobs solve against snapshots of it and repair
// their plans against the live state.
type Session struct {
	c  *Client
	id string
}

// ID returns the server-side session id.
func (s *Session) ID() string { return s.id }

// CreateSession registers a live cluster from a mapping snapshot or a named
// scenario (exactly one must be set in req) and returns its handle plus the
// initial status.
func (c *Client) CreateSession(ctx context.Context, req service.SessionRequest) (*Session, *service.SessionStatus, error) {
	var st service.SessionStatus
	if err := c.do(ctx, http.MethodPost, "/v2/clusters", req, &st); err != nil {
		return nil, nil, err
	}
	return &Session{c: c, id: st.ID}, &st, nil
}

// Advance moves the session's dynamics clock forward, generating the
// scenario's churn, and returns the resulting status (with the applied
// event delta).
func (s *Session) Advance(ctx context.Context, minutes int) (*service.SessionStatus, error) {
	return s.Apply(ctx, service.EventsRequest{AdvanceMinutes: minutes})
}

// Apply sends a combined events request (advance, then explicit events).
func (s *Session) Apply(ctx context.Context, req service.EventsRequest) (*service.SessionStatus, error) {
	var st service.SessionStatus
	if err := s.c.do(ctx, http.MethodPost, "/v2/clusters/"+s.id+"/events", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Submit enqueues a session-scoped reschedule job: the server snapshots the
// session, solves asynchronously, then validates/repairs the plan against
// the drifted session state. req.Mapping must be unset.
func (s *Session) Submit(ctx context.Context, req service.PlanRequest) (string, error) {
	var out service.JobStatus
	if err := s.c.do(ctx, http.MethodPost, "/v2/clusters/"+s.id+"/jobs", withCtxBudget(ctx, req), &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Close deletes the session server-side. Jobs already in flight finish
// normally against their snapshots.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/v2/clusters/"+s.id, nil, nil)
}
