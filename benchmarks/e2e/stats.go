package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"time"

	"vmr2l/internal/service"
)

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank percentile (p in (0,100]) of xs: the
// smallest value with at least p percent of the sample at or below it. It
// returns NaN for an empty sample and does not reorder xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the mean of the two middle values for an even count — used for
// per-pass rates and repeated set-ups, where no sample is privileged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digestPlans hashes plans in job order: every field of every migration, with
// a length prefix per plan, so a moved, missing or reordered step changes it.
func digestPlans(plans [][]service.PlanMigration) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	flag := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for _, plan := range plans {
		put(len(plan))
		for _, m := range plan {
			put(m.VM)
			put(m.FromPM)
			put(m.ToPM)
			put(flag(m.Swap))
			put(flag(m.Forced))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
