// Package hypercall models the guest→hypervisor transport DoubleDecker
// uses: cleancache operations are routed to the KVM module through a
// VMCALL, which copies arguments (and for get/put, a page of data) between
// guest and host memory. The model charges a fixed world-switch cost per
// call plus a per-page copy cost, and counts traffic for the experiment
// reports.
//
// On top of the raw Channel cost model, the package provides the batched
// Transport: a per-VM bounded ring of wire-encoded requests
// (EncodeRequest/DecodeRequest) in which fire-and-forget operations
// (put, flush) coalesce into multi-op crossings of up to MaxBatchOps
// operations or MaxBatchPages pages — the paper's 2 MiB granularity —
// paying one world switch per batch instead of one per op. See Transport.
package hypercall

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"doubledecker/internal/fault"
)

// Default costs for a VMCALL-based transport on the paper's Xeon-class
// host: ~1.8 µs for the VM exit/entry pair and ~0.45 µs to copy one 4 KiB
// page between guest and host buffers.
const (
	DefaultCallCost     = 1800 * time.Nanosecond
	DefaultPageCopyCost = 450 * time.Nanosecond
	// DefaultPageMapCost is the zero-copy alternative to a page copy:
	// remapping a shared page into the guest (a PTE update plus TLB
	// shootdown share) instead of moving 4 KiB through a bounce buffer.
	DefaultPageMapCost = 150 * time.Nanosecond
)

// Fault-injection sites the transport consults: one decision per batched
// crossing, one per synchronous call, and one per completion-frame (0xF9)
// delivery — so plans can stall or lose completions independently of the
// submissions that produced them.
const (
	SiteBatch      = "transport.batch"
	SiteCall       = "transport.call"
	SiteCompletion = "transport.completion"
)

func init() {
	// Make the transport's sites known to plan validation, so rules that
	// target them do not trip the unknown-site warning.
	fault.RegisterSites(SiteBatch, SiteCall, SiteCompletion)
}

// ErrCorrupt is returned when the receive-side checksum verification
// rejects a crossing; the sender must re-send the same frames.
var ErrCorrupt = errors.New("hypercall: batch checksum mismatch")

// Channel is one VM's hypercall path to the hypervisor cache manager.
// Traffic counters are atomic: a VM's vCPU threads (and the flush tick)
// may charge costs concurrently.
type Channel struct {
	callCost time.Duration
	copyCost time.Duration
	faults   *fault.Injector

	calls       atomic.Int64
	pagesCopied atomic.Int64
	pagesMapped atomic.Int64
	drops       atomic.Int64
	corrupts    atomic.Int64
}

// NewChannel returns a channel with the default VMCALL cost model.
func NewChannel() *Channel {
	return NewChannelWithCosts(DefaultCallCost, DefaultPageCopyCost)
}

// NewChannelWithCosts returns a channel with explicit costs, for
// sensitivity experiments.
func NewChannelWithCosts(call, pageCopy time.Duration) *Channel {
	return &Channel{callCost: call, copyCost: pageCopy}
}

// Cost returns the transport latency for one call moving pages of data,
// and accounts the traffic. Safe for concurrent use.
func (c *Channel) Cost(pages int) time.Duration {
	c.calls.Add(1)
	c.pagesCopied.Add(int64(pages))
	return c.callCost + time.Duration(pages)*c.copyCost
}

// CopyPages accounts n response pages copied outside a crossing (staged
// or bulk data moved on the completion path) and returns the copy cost.
// Safe for concurrent use.
func (c *Channel) CopyPages(n int) time.Duration {
	c.pagesCopied.Add(int64(n))
	return time.Duration(n) * c.copyCost
}

// MapPages accounts n response pages handed over as shared-page
// references — the zero-copy bulk path — and returns the mapping cost.
// Safe for concurrent use.
func (c *Channel) MapPages(n int) time.Duration {
	c.pagesMapped.Add(int64(n))
	return time.Duration(n) * DefaultPageMapCost
}

// WithFaults attaches a fault injector to the channel and returns it;
// drop, corrupt and latency faults are then played on every Deliver.
func (c *Channel) WithFaults(in *fault.Injector) *Channel {
	c.faults = in
	return c
}

// Deliver models one crossing at site carrying the wire-encoded payload
// plus pages data pages. It charges the world-switch and copy cost,
// stamps the payload with its FNV-1a checksum on the send side, plays the
// fault plan in flight, and verifies the checksum on the receive side:
//
//   - a drop (or stall/io-error) loses the crossing — nothing arrives;
//   - a corruption flips payload bits, so verification rejects the batch;
//   - a latency spike delays delivery but the payload arrives intact.
//
// The returned latency is charged in every case — a lost crossing still
// burned its cost — and a non-nil error means the payload did not arrive
// intact, so the caller must re-send the same frames or abandon them.
//
// Without an injector nothing can be lost or corrupted in flight, so the
// checksum work is skipped entirely: the healthy path costs exactly what
// it did before fault injection existed.
func (c *Channel) Deliver(now time.Duration, pages int, payload []byte, site string) (time.Duration, error) {
	lat := c.Cost(pages)
	if c.faults == nil {
		return lat, nil
	}
	sent := Checksum(payload)
	received := sent
	d := c.faults.Decide(now, site)
	switch d.Kind {
	case fault.KindLatency:
		lat += d.Delay
	case fault.KindCorrupt:
		received ^= 1 << 63 // a bit flipped in flight
	case fault.KindDrop, fault.KindStall, fault.KindIOError:
		c.drops.Add(1)
		return lat + d.Delay, &fault.Error{Site: site, Kind: d.Kind}
	}
	if received != sent {
		c.corrupts.Add(1)
		return lat, fmt.Errorf("%w at %s: sent %016x, received %016x", ErrCorrupt, site, sent, received)
	}
	return lat, nil
}

// CompletionFault plays the fault plan on one completion-frame delivery
// (SiteCompletion) at virtual time now. It returns the extra delay the
// completions must absorb and whether the whole completion batch was
// lost in flight: a drop/stall/io-error loses the frames (the waiters
// stay pending and must be failed by the watchdog or the await path),
// a corruption is rejected by the receive-side checksum — equally lost,
// since completions are never re-sent — and a latency fault delays every
// completion's ready-time. Nothing is consulted without an injector.
func (c *Channel) CompletionFault(now time.Duration) (time.Duration, bool) {
	if c.faults == nil {
		return 0, false
	}
	d := c.faults.Decide(now, SiteCompletion)
	switch d.Kind {
	case fault.KindLatency:
		return d.Delay, false
	case fault.KindDrop, fault.KindStall, fault.KindIOError:
		c.drops.Add(1)
		return d.Delay, true
	case fault.KindCorrupt:
		c.corrupts.Add(1)
		return 0, true
	default: // KindNone
		return 0, false
	}
}

// Calls reports the number of hypercalls issued.
func (c *Channel) Calls() int64 { return c.calls.Load() }

// PagesCopied reports the number of pages moved across the boundary.
func (c *Channel) PagesCopied() int64 { return c.pagesCopied.Load() }

// PagesMapped reports the number of pages handed over as zero-copy
// shared-page references.
func (c *Channel) PagesMapped() int64 { return c.pagesMapped.Load() }

// Drops reports the number of crossings lost in flight.
func (c *Channel) Drops() int64 { return c.drops.Load() }

// Corrupts reports the number of crossings rejected by checksum.
func (c *Channel) Corrupts() int64 { return c.corrupts.Load() }

// Faulty reports whether a fault injector is attached; callers can skip
// building payloads that exist only to be checksummed or corrupted.
func (c *Channel) Faulty() bool { return c.faults != nil }
