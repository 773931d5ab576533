package main

import (
	"cmp"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on shared VMs whose host takes CPU time from them:
// "steal" in /proc/stat. On a 2-vCPU VM it ranges from under 1% to over 30%
// in phases of seconds to minutes, and every timing follows it: a run at
// 30% steal measures about 40% fewer ops per second than one at 2%. So the
// driver samples the host's steal alongside the run, takes each timing per
// time slice (or per set-up), and reports it at zero steal: the intercept
// of a least-squares fit of log(value) = a + b·steal + c·t over the slices.
// The t term absorbs drift along a run, such as floor-bigstate's growing
// state, and puts the intercept at the middle of the run.

// sampleEvery is how often the sampler reads the host's and the process's
// CPU counters.
const sampleEvery = 50 * time.Millisecond

// hostSample is one reading of the cumulative counters.
type hostSample struct {
	at           time.Time
	steal, total float64       // /proc/stat ticks over all CPUs
	cpu          time.Duration // this process's user+system CPU
}

func readHost() hostSample {
	s := hostSample{cpu: cpuTime()}
	s.steal, s.total = procStat()
	s.at = time.Now()
	return s
}

// procStat returns the steal and total ticks of the "cpu" line of
// /proc/stat, and zeros when it cannot be read (steal then reads 0).
func procStat() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user and nice.
	for i, x := range f[1:9] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostSampler reads the counters every sampleEvery until finished.
type hostSampler struct {
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	samples hostTrace
}

func startSampler() *hostSampler {
	s := &hostSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.samples = append(s.samples, readHost())
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.samples = append(s.samples, readHost())
				return
			case <-t.C:
				s.samples = append(s.samples, readHost())
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its readings. Later
// calls return the same readings.
func (s *hostSampler) finish() hostTrace {
	s.once.Do(func() {
		close(s.stop)
		<-s.done
	})
	return s.samples
}

// hostTrace is the sampler's readings in time order.
type hostTrace []hostSample

// at is the counters at t, interpolated linearly between the readings
// around it (held at the first or last reading outside them).
func (h hostTrace) at(t time.Time) hostSample {
	if len(h) == 0 {
		return hostSample{at: t}
	}
	i := 0
	for i < len(h) && !h[i].at.After(t) {
		i++
	}
	if i == 0 {
		return h[0]
	}
	if i == len(h) {
		return h[len(h)-1]
	}
	a, b := h[i-1], h[i]
	f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return hostSample{
		at:    t,
		steal: a.steal + f*(b.steal-a.steal),
		total: a.total + f*(b.total-a.total),
		cpu:   a.cpu + time.Duration(f*float64(b.cpu-a.cpu)),
	}
}

// steal is the share of the host's CPU time stolen between from and to.
func (h hostTrace) steal(from, to time.Time) float64 {
	a, b := h.at(from), h.at(to)
	return ratio(b.steal-a.steal, b.total-a.total)
}

// cpu is the process CPU time used between from and to.
func (h hostTrace) cpu(from, to time.Time) time.Duration {
	return h.at(to).cpu - h.at(from).cpu
}

// point is one timing taken over an interval of a run: its value, the
// host's steal share over the interval, and when the interval was (in any
// unit; only differences matter).
type point struct {
	value, steal, t float64
}

// stealCut is the steal share up to which a point enters the fit. Up to
// about 0.2, log(value) follows steal in a straight line; above it values
// fall faster, as the program runs out of CPU, and a fit through them would
// overshoot at zero steal.
const stealCut = 0.2

// atZeroSteal fits log(value) = a + b·steal + c·(t − mean t) by least
// squares and returns the fitted value at zero steal in the middle of the
// run. The fit takes the points with steal up to stealCut, or up to the
// steal of the least-stolen quarter of them when that is higher. Points
// whose value is not positive and finite are left out. When steal does not
// vary it cannot be fitted, and the result is the geometric mean of the
// values along the time trend. With no points it is NaN.
func atZeroSteal(ps []point) float64 {
	var xs []point
	for _, p := range ps {
		if p.value > 0 && !math.IsInf(p.value, 0) {
			xs = append(xs, point{math.Log(p.value), p.steal, p.t})
		}
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	var mid float64 // the middle of the run, over every point
	for _, p := range xs {
		mid += p.t / float64(len(xs))
	}
	slices.SortStableFunc(xs, func(a, b point) int { return cmp.Compare(a.steal, b.steal) })
	limit := max(stealCut, xs[(len(xs)+3)/4-1].steal)
	k := 0
	for k < len(xs) && xs[k].steal <= limit {
		k++
	}
	xs = xs[:k]

	n := float64(len(xs))
	var my, ms, mt float64
	for _, p := range xs {
		my += p.value / n
		ms += p.steal / n
		mt += p.t / n
	}
	var sss, stt, sst, ssy, sty float64
	for _, p := range xs {
		s, t, y := p.steal-ms, p.t-mt, p.value-my
		sss += s * s
		stt += t * t
		sst += s * t
		ssy += s * y
		sty += t * y
	}
	var b, c float64
	switch det := sss*stt - sst*sst; {
	case det > 1e-12*sss*stt:
		b = (ssy*stt - sty*sst) / det
		c = (sty*sss - ssy*sst) / det
	case stt > 0:
		c = sty / stt
	case sss > 0:
		b = ssy / sss
	}
	return math.Exp(my - b*ms + c*(mid-mt))
}
