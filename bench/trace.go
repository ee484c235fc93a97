// Span recording for the traced run. The interposers in interpose.go call
// begin/end around every call that crosses a layer boundary; this file
// keeps the open-span stack, attributes each span's time to its parent,
// aggregates per (layer, op class) and keeps raw spans for a sample of
// requests.

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sync"
	"time"
)

// layer is one of this repository's packages at a boundary that is a Go
// interface, so the benchmark can sit on it without touching the package.
type layer uint8

const (
	layerGuest layer = iota
	layerHypercall
	layerDDCache
	layerPolicy
	layerStoreMem
	layerStoreSSD
	layerStoreRemote
	layerBlockdev
	numLayers
)

var layerNames = [numLayers]string{
	"guest", "hypercall", "ddcache", "policy", "store.mem", "store.ssd", "store.remote", "blockdev",
}

// class is the op class of a span within its layer.
type class uint8

const (
	// guest
	clsStep class = iota
	// hypercall
	clsSubmit
	clsSubmitAsync
	clsAwait
	clsFlush
	clsWatchdog
	clsClose
	// ddcache
	clsGetHit
	clsGetMiss
	clsPut
	clsPutEvict
	clsReadAhead
	clsInvalidate
	clsControl
	// policy
	clsSelect
	// store
	clsStore
	clsFetch
	clsRelease
	// blockdev
	clsRead
	clsWrite
	clsWriteAsync
	numClasses
)

var classNames = [numClasses]string{
	"step",
	"submit", "submit_async", "await", "flush", "watchdog", "close",
	"get_hit", "get_miss", "put", "put_evict", "readahead", "invalidate", "control",
	"select",
	"store", "fetch", "release",
	"read", "write", "write_async",
}

// hostHist is a log-linear histogram of host nanoseconds: eight buckets
// per power of two, so a bucket is at most 12.5 % wide.
type hostHist [histBuckets]int64

const histBuckets = 40 * 8

func histBucket(ns int64) int {
	if ns < 8 {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	b := (e-2)*8 + int((ns>>(e-3))&7)
	return min(b, histBuckets-1)
}

// histLower is the smallest value that lands in bucket b.
func histLower(b int) float64 {
	if b < 8 {
		return float64(b)
	}
	e := b/8 + 2
	return float64(int64(8+b%8) << (e - 3))
}

// quantile interpolates linearly inside the bucket holding the q-th sample.
func (h *hostHist) quantile(q float64) float64 {
	var n int64
	for _, c := range h {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	for b, c := range h {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := histLower(b), histLower(b+1)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return histLower(len(h) - 1)
}

// spanAgg accumulates every span of one (layer, class).
type spanAgg struct {
	count   int64
	errs    int64
	inclNs  int64 // span durations
	childNs int64 // the part of those durations covered by child spans
	simNs   int64 // virtual latency the calls returned
	hist    hostHist
}

func (a *spanAgg) add(b *spanAgg) {
	a.count += b.count
	a.errs += b.errs
	a.inclNs += b.inclNs
	a.childNs += b.childNs
	a.simNs += b.simNs
	for i, c := range b.hist {
		a.hist[i] += c
	}
}

// rawSpan is one line of trace-<workload>.jsonl.
type rawSpan struct {
	Req     uint64 `json:"req"`
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SimNs   int64  `json:"sim_lat_ns"`
	OK      bool   `json:"ok"`
}

const (
	sampleEvery = 1024  // raw spans are kept for one request in this many
	maxRawSpans = 65536 // and for at most this many spans
)

type openSpan struct {
	id      uint64
	childNs int64
}

// tracer records spans. One goroutine drives the whole simulated stack, so
// the default tracer keeps one open-span stack without locking. A tracer
// marked shared takes calls from several goroutines (mgr-mixed's store and
// policy interposers): it locks, keeps no stack, and every span is a root.
type tracer struct {
	enabled bool
	shared  bool
	mu      sync.Mutex

	agg    [numLayers][numClasses]spanAgg
	stack  []openSpan
	rootNs int64 // summed durations of spans that had no parent
	// adoptedNs is the time of a merged shared tracer's spans: they ran
	// inside this tracer's ddcache spans, which therefore do not own it.
	adoptedNs int64

	requests uint64 // root spans seen: one request id per root span
	sampled  bool   // whether the current request keeps raw spans
	nextSpan uint64
	raw      []rawSpan
}

// begin opens a span and returns its start time. A nil tracer records
// nothing.
func (t *tracer) begin() int64 {
	if t == nil || !t.enabled {
		return 0
	}
	if !t.shared {
		if len(t.stack) == 0 {
			t.requests++
			t.sampled = t.requests%sampleEvery == 1 && len(t.raw) < maxRawSpans
		}
		t.nextSpan++
		t.stack = append(t.stack, openSpan{id: t.nextSpan})
	}
	return hostNs()
}

// end closes the span opened by the matching begin.
func (t *tracer) end(l layer, c class, start int64, sim time.Duration, failed bool) {
	if t == nil || !t.enabled {
		return
	}
	endNs := hostNs()
	d := endNs - start
	if t.shared {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	a := &t.agg[l][c]
	a.count++
	a.inclNs += d
	a.simNs += int64(sim)
	if failed {
		a.errs++
	}
	a.hist[histBucket(d)]++
	if t.shared {
		t.rootNs += d
		return
	}
	top := len(t.stack) - 1
	sp := t.stack[top]
	t.stack = t.stack[:top]
	a.childNs += sp.childNs
	var parent uint64
	if top == 0 {
		t.rootNs += d
	} else {
		t.stack[top-1].childNs += d
		parent = t.stack[top-1].id
	}
	if t.sampled && len(t.raw) < maxRawSpans {
		t.raw = append(t.raw, rawSpan{
			Req: t.requests, Span: sp.id, Parent: parent,
			Layer: layerNames[l], Op: classNames[c],
			StartNs: start, EndNs: endNs, SimNs: int64(sim), OK: !failed,
		})
	}
}

// merge folds another tracer's aggregates and raw spans into t.
func (t *tracer) merge(o *tracer) {
	for l := range o.agg {
		for c := range o.agg[l] {
			t.agg[l][c].add(&o.agg[l][c])
		}
	}
	if o.shared {
		t.adoptedNs += o.rootNs
	} else {
		t.rootNs += o.rootNs
		t.requests += o.requests
	}
	t.raw = append(t.raw, o.raw...)
}

// layerTotals sums a layer's classes.
func (t *tracer) layerTotals(l layer) spanAgg {
	var s spanAgg
	for c := range t.agg[l] {
		s.add(&t.agg[l][c])
	}
	return s
}

// selfNs is the time spent in the layer's own code: its spans minus the
// part their children cover.
func (t *tracer) selfNs(l layer) int64 {
	s := t.layerTotals(l)
	self := s.inclNs - s.childNs
	if l == layerDDCache {
		self -= t.adoptedNs
	}
	return self
}

// writeRaw writes the sampled spans as JSON lines.
func (t *tracer) writeRaw(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.raw {
		if err := enc.Encode(&t.raw[i]); err != nil {
			f.Close()
			return fmt.Errorf("write trace %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
