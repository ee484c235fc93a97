package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("occupancy")
	s.Record(time.Second, 100)
	s.Record(2*time.Second, 300)
	s.Record(3*time.Second, 200)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Max() != 300 {
		t.Fatalf("Max = %v, want 300", s.Max())
	}
	if s.Mean() != 200 {
		t.Fatalf("Mean = %v, want 200", s.Mean())
	}
	if got := s.Last(); got.Value != 200 || got.At != 3*time.Second {
		t.Fatalf("Last = %+v", got)
	}
}

func TestSeriesMeanAfter(t *testing.T) {
	s := NewSeries("x")
	s.Record(0, 1000) // warm-up spike
	s.Record(time.Second, 10)
	s.Record(2*time.Second, 20)
	if got := s.MeanAfter(time.Second); got != 15 {
		t.Fatalf("MeanAfter = %v, want 15", got)
	}
	if got := s.MeanAfter(10 * time.Second); got != 0 {
		t.Fatalf("MeanAfter past end = %v, want 0", got)
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewSeries("x")
	s.Record(time.Second, 1)
	s.Record(3*time.Second, 3)
	if got := s.At(0); got != 0 {
		t.Fatalf("At(0) = %v, want 0", got)
	}
	if got := s.At(2 * time.Second); got != 1 {
		t.Fatalf("At(2s) = %v, want 1 (step)", got)
	}
	if got := s.At(5 * time.Second); got != 3 {
		t.Fatalf("At(5s) = %v, want 3", got)
	}
}

func TestSeriesPointsIsCopy(t *testing.T) {
	s := NewSeries("x")
	s.Record(time.Second, 1)
	pts := s.Points()
	pts[0].Value = 99
	if s.Points()[0].Value != 1 {
		t.Fatal("Points returned a mutable reference to internal state")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("Mean = %v, want 2ms", h.Mean())
	}
	if h.Min() != time.Millisecond || h.Max() != 3*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50 := h.Quantile(0.5)
	// ~4% bucket resolution: accept 450..560µs.
	if p50 < 450*time.Microsecond || p50 > 560*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 940*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Fatalf("p99 = %v, want ~990µs", p99)
	}
	if h.Quantile(0) != h.Min() {
		t.Fatalf("Quantile(0) = %v, want min", h.Quantile(0))
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("Quantile(1) = %v, want max", h.Quantile(1))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 2 {
		t.Fatalf("counter = %d, want 2 (same instance)", got)
	}
	r.Series("s").Record(0, 1)
	if r.Series("s").Len() != 1 {
		t.Fatal("series not reused")
	}
	names := r.SeriesNames()
	if len(names) != 1 || names[0] != "s" {
		t.Fatalf("SeriesNames = %v", names)
	}
}

func TestRegistrySummaryDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Add(1)
	r.Counter("aa").Add(2)
	r.Gauge("mid").Set(3)
	a, b := r.Summary(), r.Summary()
	if a != b {
		t.Fatal("Summary not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("Summary empty")
	}
}

// Property: histogram quantiles are monotone in q and bounded by min/max.
func TestPropertyHistogramQuantileMonotone(t *testing.T) {
	prop := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		for _, s := range samples {
			h.Observe(time.Duration(s%10_000_000) * time.Nanosecond)
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			if v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram mean equals the true mean of observations.
func TestPropertyHistogramMeanExact(t *testing.T) {
	prop := func(samples []uint16) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram()
		var sum int64
		for _, s := range samples {
			h.Observe(time.Duration(s) * time.Microsecond)
			sum += int64(s) * 1000
		}
		want := sum / int64(len(samples))
		return math.Abs(float64(h.Mean()-time.Duration(want))) < 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
