package main

import "time"

// The sandbox this benchmark runs in does not have a steady CPU: the same
// arithmetic loop was measured taking anywhere between 1x and 2x its quiet
// time, for seconds to minutes at a stretch, with no steal time reported
// (neighbours on the host). Wall-clock figures from such a period cannot be
// compared with figures from a quiet one, whatever the run length. So every
// run interleaves a fixed reference loop with its jobs (between client 0's
// jobs, when a single-client workload is otherwise idle), spending about two
// percent of its time there, and reports each timing at the speed the machine
// showed when it was undisturbed: the figure is divided by the disturbance
// factor mean(loop time) / quiet(loop time) of the window it was measured in
// — the measured phase, or one set-up — where the quiet time is the run's own
// second-percentile sample. On a quiet machine the factor is 1.00-1.05 and
// changes little; the raw figures and the factor are printed next to the
// reported ones. In a disturbed hour the raw median of one workload on one
// seed moved by +60 %, the reported one by under 8 %.

const (
	// calibIters sizes the reference loop to a little over a millisecond:
	// short enough to find undisturbed moments, long against timer noise.
	calibIters = 2_000_000
	// calibShare is the share of measured time spent in the reference loop.
	calibShare = 0.02
	// calibBurst is the number of samples taken around each set-up.
	calibBurst = 24
)

type calibSample struct {
	at time.Time
	ms float64
}

// calibrator collects reference-loop samples over a run. It needs no lock:
// one goroutine at a time samples (the main one around set-ups and in the
// replay, client 0 during the measured phase), and windows are read by the
// main goroutine after the clients have been waited for.
type calibrator struct {
	samples []calibSample
	spent   time.Duration
	sink    float64
}

// sample runs the reference loop once.
func (c *calibrator) sample() {
	t := time.Now()
	x, s := 1.0001, 0.0
	for i := 0; i < calibIters; i++ {
		s += x * float64(i&7)
	}
	d := time.Since(t)
	c.sink += s // keeps the loop from being optimised away
	c.samples = append(c.samples, calibSample{t, ms(d)})
	c.spent += d
}

func (c *calibrator) burst() {
	for i := 0; i < calibBurst; i++ {
		c.sample()
	}
}

// pacer keeps the reference loop at its share of the time since it was made,
// and knows the disturbance factor of that stretch.
type pacer struct {
	cal       *calibrator
	from      time.Time
	spentFrom time.Duration
}

func (c *calibrator) pace() *pacer {
	return &pacer{cal: c, from: time.Now(), spentFrom: c.spent}
}

// keepUp samples until the loop has had its share of the time since the
// pacer was made.
func (p *pacer) keepUp() {
	for float64(p.cal.spent-p.spentFrom) < calibShare*float64(time.Since(p.from)) {
		p.cal.sample()
	}
}

// factor is the disturbance factor from the pacer's start until now.
func (p *pacer) factor() float64 { return p.cal.factor(p.from, time.Now()) }

// quiet is the loop time on the undisturbed machine, as this run saw it.
func (c *calibrator) quiet() float64 {
	ms := make([]float64, len(c.samples))
	for i, s := range c.samples {
		ms[i] = s.ms
	}
	return percentile(ms, 2)
}

// factor is the disturbance factor of the window [from, to]: how much longer
// than its quiet time the reference loop took there, on average. A window
// without samples reports 1.
func (c *calibrator) factor(from, to time.Time) float64 {
	quiet := c.quiet()
	sum, n := 0.0, 0
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			sum += s.ms
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return max(sum/float64(n)/quiet, 1)
}
