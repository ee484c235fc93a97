// Timing interposers: one wrapper per layer boundary that is a Go
// interface today. Each forwards to the stock implementation unchanged and
// records a span around the call, so the traced stack behaves — and
// counts — exactly as the stock one does.

package main

import (
	"time"

	"doubledecker/internal/blockdev"
	"doubledecker/internal/cgroup"
	"doubledecker/internal/cleancache"
	"doubledecker/internal/ddcache"
	"doubledecker/internal/guest"
	"doubledecker/internal/hypercall"
	"doubledecker/internal/policy"
	"doubledecker/internal/store"
	"doubledecker/internal/workload"
)

// probe wraps a workload profile: the guest layer's boundary. It runs in
// untraced runs too (tr nil), where it only collects the per-step virtual
// latencies the percentiles are computed from.
type probe struct {
	inner     workload.Profile
	tr        *tracer
	recording bool
	lat       []int64 // virtual ns per step inside the measured window
}

var _ workload.Profile = (*probe)(nil)

func (p *probe) Name() string { return p.inner.Name() }

func (p *probe) Prepare(now time.Duration, c *guest.Container) { p.inner.Prepare(now, c) }

func (p *probe) Step(now time.Duration, c *guest.Container, thread int) (time.Duration, int64) {
	start := p.tr.begin()
	lat, bytes := p.inner.Step(now, c, thread)
	p.tr.end(layerGuest, clsStep, start, lat, false)
	if p.recording {
		p.lat = append(p.lat, int64(lat))
	}
	return lat, bytes
}

// tracedTransport is the hypercall layer's boundary. It keeps the optional
// capabilities of the stock transport, which the front and the guest find
// by type assertion.
type tracedTransport struct {
	inner *hypercall.Transport
	tr    *tracer
}

var (
	_ cleancache.AsyncTransport    = (*tracedTransport)(nil)
	_ cleancache.DeadlineTransport = (*tracedTransport)(nil)
)

func (t *tracedTransport) Submit(now time.Duration, req cleancache.Request) cleancache.Response {
	start := t.tr.begin()
	resp := t.inner.Submit(now, req)
	t.tr.end(layerHypercall, clsSubmit, start, resp.Latency, false)
	return resp
}

func (t *tracedTransport) SubmitAsync(now time.Duration, req cleancache.Request) (*cleancache.PendingGet, time.Duration) {
	start := t.tr.begin()
	pg, lat := t.inner.SubmitAsync(now, req)
	t.tr.end(layerHypercall, clsSubmitAsync, start, lat, false)
	return pg, lat
}

func (t *tracedTransport) Await(now time.Duration, pg *cleancache.PendingGet) cleancache.Response {
	start := t.tr.begin()
	resp := t.inner.Await(now, pg)
	t.tr.end(layerHypercall, clsAwait, start, resp.Latency, false)
	return resp
}

func (t *tracedTransport) Flush(now time.Duration) time.Duration {
	start := t.tr.begin()
	lat := t.inner.Flush(now)
	t.tr.end(layerHypercall, clsFlush, start, lat, false)
	return lat
}

func (t *tracedTransport) Watchdog(now time.Duration) int {
	start := t.tr.begin()
	n := t.inner.Watchdog(now)
	t.tr.end(layerHypercall, clsWatchdog, start, 0, false)
	return n
}

func (t *tracedTransport) Close(now time.Duration) time.Duration {
	start := t.tr.begin()
	lat := t.inner.Close(now)
	t.tr.end(layerHypercall, clsClose, start, lat, false)
	return lat
}

// tracedBackend is the ddcache layer's boundary: Manager.Dispatch.
type tracedBackend struct {
	inner *ddcache.Manager
	tr    *tracer
}

var _ cleancache.Backend = (*tracedBackend)(nil)

func (b *tracedBackend) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	victims := b.victims()
	start := b.tr.begin()
	resp := b.inner.Dispatch(now, req)
	b.tr.end(layerDDCache, dispatchClass(req.Op, resp.Ok, b.victims() != victims), start, resp.Latency, false)
	return resp
}

// victims counts the objects capacity enforcement has pushed out of a
// tier so far, evicted or demoted.
func (b *tracedBackend) victims() int64 {
	return b.inner.TotalEvictions() + b.inner.DemotionStats().Enqueued
}

// dispatchClass names the op class of one Dispatch. A put during which
// capacity enforcement pushed something out is a put_evict.
func dispatchClass(op cleancache.OpCode, ok, evicted bool) class {
	switch op {
	case cleancache.OpGet:
		if ok {
			return clsGetHit
		}
		return clsGetMiss
	case cleancache.OpPut:
		if evicted {
			return clsPutEvict
		}
		return clsPut
	case cleancache.OpReadAhead:
		return clsReadAhead
	case cleancache.OpFlushPage, cleancache.OpFlushInode:
		return clsInvalidate
	default: // ddlint:nonexhaustive the control ops share one class
		return clsControl
	}
}

// tracedSelector is the policy layer's boundary: Config.VictimSelector.
func tracedSelector(tr *tracer) func(ents []policy.Entity, evictionSize int64) int {
	return func(ents []policy.Entity, evictionSize int64) int {
		start := tr.begin()
		v := policy.SelectVictim(ents, evictionSize)
		tr.end(layerPolicy, clsSelect, start, 0, false)
		return v
	}
}

// tracedStore is the store layer's boundary, one per tier.
type tracedStore struct {
	inner store.Backend
	layer layer
	tr    *tracer
}

var _ store.Backend = (*tracedStore)(nil)

func (s *tracedStore) Type() cgroup.StoreType   { return s.inner.Type() }
func (s *tracedStore) CapacityBytes() int64     { return s.inner.CapacityBytes() }
func (s *tracedStore) SetCapacityBytes(n int64) { s.inner.SetCapacityBytes(n) }
func (s *tracedStore) UsedBytes() int64         { return s.inner.UsedBytes() }

func (s *tracedStore) Store(now time.Duration, size int64) (time.Duration, error) {
	start := s.tr.begin()
	lat, err := s.inner.Store(now, size)
	s.tr.end(s.layer, clsStore, start, lat, err != nil)
	return lat, err
}

func (s *tracedStore) Fetch(now time.Duration, size int64) (time.Duration, error) {
	start := s.tr.begin()
	lat, err := s.inner.Fetch(now, size)
	s.tr.end(s.layer, clsFetch, start, lat, err != nil)
	return lat, err
}

func (s *tracedStore) Release(size int64) {
	start := s.tr.begin()
	s.inner.Release(size)
	s.tr.end(s.layer, clsRelease, start, 0, false)
}

// tracedDevice is the blockdev layer's boundary: the guest's virtual disk.
type tracedDevice struct {
	inner blockdev.Device
	tr    *tracer
}

var _ blockdev.Device = (*tracedDevice)(nil)

func (d *tracedDevice) Name() string          { return d.inner.Name() }
func (d *tracedDevice) Stats() blockdev.Stats { return d.inner.Stats() }

func (d *tracedDevice) Read(now time.Duration, offset, size int64) (time.Duration, error) {
	start := d.tr.begin()
	lat, err := d.inner.Read(now, offset, size)
	d.tr.end(layerBlockdev, clsRead, start, lat, err != nil)
	return lat, err
}

func (d *tracedDevice) Write(now time.Duration, offset, size int64) (time.Duration, error) {
	start := d.tr.begin()
	lat, err := d.inner.Write(now, offset, size)
	d.tr.end(layerBlockdev, clsWrite, start, lat, err != nil)
	return lat, err
}

func (d *tracedDevice) WriteAsync(now time.Duration, offset, size int64) error {
	start := d.tr.begin()
	err := d.inner.WriteAsync(now, offset, size)
	d.tr.end(layerBlockdev, clsWriteAsync, start, 0, err != nil)
	return err
}
