package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share its
// Job id; Parent is the id of the span that caused this one (0 = none).
// Times are milliseconds since the recorder was created.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The program under test
// is not instrumented: every span wraps a call the harness itself makes.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) ms(t time.Time) float64 { return ms(t.Sub(r.t0)) }

// add records a finished span and returns its id.
func (r *recorder) add(parent, job int, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: r.ms(start), End: r.ms(end)})
	return id
}

// reserve allocates a span id before its children run, so they can name it
// as parent; finish fills the interval in.
func (r *recorder) reserve(job int, name string, start time.Time) int {
	return r.add(0, job, name, start, start)
}

func (r *recorder) finish(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.ms(end)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children are not
// counted twice, and a child is clipped to its parent's interval).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeTrace writes the spans of a run as JSON.
func writeTrace(path string, w *workload, env envBlock, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string   `json:"workload"`
		Env      envBlock `json:"env"`
		Spans    []span   `json:"spans"`
	}{w.name, env, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// tracedTransport records one span per HTTP call a client makes, plus a
// "decode" child-less sibling from the moment the response headers arrive
// until the caller closes the body — which is when the client library has
// finished JSON-decoding it. One instance belongs to one client goroutine,
// which sets job and parent before a traced job and clears parent after it;
// while parent is 0 calls pass through unrecorded. No locking is needed.
type tracedTransport struct {
	base   http.RoundTripper
	rec    *recorder
	job    int
	parent int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.parent == 0 {
		return t.base.RoundTrip(req)
	}
	name := req.Method + " " + routeOf(req.URL.Path)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	t.rec.add(t.parent, t.job, "http "+name, start, end)
	if err != nil {
		return nil, err
	}
	parent, job := t.parent, t.job
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: func() {
		t.rec.add(parent, job, "decode "+name, end, time.Now())
	}}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	done func()
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done()
		b.done = nil
	}
	return err
}

// routeOf replaces the variable segments of an API path, so that spans of
// the same endpoint share a name.
func routeOf(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) >= 3 && (parts[1] == "clusters" || parts[1] == "jobs") {
		parts[2] = "{id}"
	}
	return "/" + strings.Join(parts, "/")
}
