// Package metrics provides the measurement primitives used across the
// DoubleDecker simulator: counters, time-series samplers for occupancy
// plots (the paper's cache-distribution figures), and latency histograms
// for the throughput/latency tables.
//
// Concurrency contract: every type in this package is self-locking.
// Counter and Gauge are single atomics; Series, Histogram and Registry
// serialize internally with a mutex, so metrics may be recorded from the
// cache manager's concurrent data paths without external locks.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta; negative deltas are ignored.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.n.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an instantaneous value that can move in both directions, safe
// for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reports the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Point is one sample of a time series.
type Point struct {
	At    time.Duration
	Value float64
}

// Series is an append-only time series, used to record cache occupancy
// over virtual time for the paper's distribution figures. Safe for
// concurrent use.
type Series struct {
	Name string

	mu     sync.Mutex
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends a sample taken at virtual time at.
func (s *Series) Record(at time.Duration, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points = append(s.points, Point{At: at, Value: v})
}

// Points returns a copy of the recorded samples.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Len reports the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Last returns the most recent sample, or a zero Point if empty.
func (s *Series) Last() Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.points) == 0 {
		return Point{}
	}
	return s.points[len(s.points)-1]
}

// Max returns the maximum sampled value, or 0 if empty.
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := 0.0
	for _, p := range s.points {
		if p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Mean returns the arithmetic mean of sampled values, or 0 if empty.
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.points {
		sum += p.Value
	}
	return sum / float64(len(s.points))
}

// MeanAfter returns the mean of samples taken at or after cutoff. It is
// used to report steady-state occupancy, skipping warm-up.
func (s *Series) MeanAfter(cutoff time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, n := 0.0, 0
	for _, p := range s.points {
		if p.At >= cutoff {
			sum += p.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// At returns the latest sample value at or before t (step interpolation),
// or 0 when t precedes all samples.
func (s *Series) At(t time.Duration) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := 0.0
	for _, p := range s.points {
		if p.At > t {
			break
		}
		v = p.Value
	}
	return v
}

// Histogram accumulates latency observations with fixed precision. It
// retains enough structure to answer mean and quantile queries without
// storing every sample: observations are bucketed on a log scale. Safe
// for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	buckets map[int]int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make(map[int]int64)}
}

// log-scale bucketing: ~4% relative resolution.
const bucketsPerDecade = 57

func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return int(math.Floor(math.Log10(float64(d)) * bucketsPerDecade))
}

func bucketUpper(b int) time.Duration {
	return time.Duration(math.Pow(10, float64(b+1)/bucketsPerDecade))
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[bucketOf(d)]++
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean reports the average observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min reports the smallest observation, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max reports the largest observation, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile reports an approximation of the q-th quantile (0 ≤ q ≤ 1).
// Resolution is the bucket width (~4%).
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	target := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for _, k := range keys {
		cum += h.buckets[k]
		if cum >= target {
			u := bucketUpper(k)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Registry is a named collection of metrics for one simulation run. Safe
// for concurrent use: lookups share one mutex, and the returned metrics
// self-lock.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	series   map[string]*Series
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		series:   make(map[string]*Series),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Series returns the named series, creating it on first use.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(name)
		r.series[name] = s
	}
	return s
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// SeriesNames returns the sorted names of all recorded series.
func (r *Registry) SeriesNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Summary renders a sorted human-readable dump of counters and gauges.
func (r *Registry) Summary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %-40s %d\n", n, r.counters[n].Value())
	}
	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "gauge   %-40s %d\n", n, r.gauges[n].Value())
	}
	return b.String()
}
