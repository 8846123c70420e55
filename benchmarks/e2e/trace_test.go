package main

import (
	"math"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "submit", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "poll a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "poll b", Start: 40, End: 60},     // overlaps poll a: 20-60 counts once
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120},      // clipped to the parent: 90-100
		{ID: 6, Parent: 3, Name: "grandchild", Start: 25, End: 30}, // covers its parent only
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 100 - 10 - 40 - 10, 2: 10, 3: 25, 4: 20, 5: 30, 6: 5}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestRouteOf(t *testing.T) {
	for path, want := range map[string]string{
		"/v2/jobs/r1~job-7":      "/v2/jobs/{id}",
		"/v2/clusters":           "/v2/clusters",
		"/v2/clusters/s0":        "/v2/clusters/{id}",
		"/v2/clusters/up12/jobs": "/v2/clusters/{id}/jobs",
		"/v2/clusters/s1/events": "/v2/clusters/{id}/events",
		"/v2/stats":              "/v2/stats",
	} {
		if got := routeOf(path); got != want {
			t.Errorf("routeOf(%q) = %q, want %q", path, got, want)
		}
	}
}
