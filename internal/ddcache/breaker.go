package ddcache

import (
	"sync"
	"time"

	"doubledecker/internal/metrics"
)

// BreakerConfig parameterizes the SSD circuit breaker. The zero value
// selects the defaults below.
type BreakerConfig struct {
	// Threshold is the number of errors inside Window that trips the
	// breaker open (default 5).
	Threshold int
	// Window is the sliding error window (default 1s of virtual time).
	Window time.Duration
	// Cooldown is how long the breaker stays open before admitting
	// half-open probes (default 5s).
	Cooldown time.Duration
	// Probes is the number of consecutive successful operations in the
	// half-open state that restore the device (default 3).
	Probes int
}

func (c *BreakerConfig) defaults() {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 3
	}
}

// breakerState is the circuit breaker's state machine position.
type breakerState int

const (
	// breakerClosed: healthy, all traffic flows.
	breakerClosed breakerState = iota
	// breakerOpen: tripped; the device is bypassed until the cooldown
	// elapses.
	breakerOpen
	// breakerHalfOpen: cooldown elapsed; traffic flows as probes, and
	// Probes consecutive successes restore the device while any failure
	// re-trips it.
	breakerHalfOpen
)

// String implements fmt.Stringer.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerStats is a snapshot of one breaker's activity.
type BreakerStats struct {
	State    string
	Trips    int64 // closed/half-open → open transitions
	Probes   int64 // operations admitted in the half-open state
	Restores int64 // half-open → closed transitions
}

// breaker is a sliding-window circuit breaker on virtual time. The cache
// manager places one in front of the SSD store so a failing device sheds
// load (puts fall back to memory or are dropped; gets of SSD-resident
// objects miss) instead of failing every operation for its timeout cost.
//
// All state transitions run under mu; the breaker is safe for concurrent
// use from the manager's data paths.
type breaker struct {
	cfg  BreakerConfig
	reg  *metrics.Registry
	name string // metric prefix, e.g. "breaker.ssd"

	mu    sync.Mutex
	state breakerState // ddlint:guarded-by mu
	// errAt holds the error timestamps inside the sliding Window.
	errAt    []time.Duration // ddlint:guarded-by mu
	openedAt time.Duration   // ddlint:guarded-by mu
	// streak counts consecutive half-open successes.
	streak   int   // ddlint:guarded-by mu
	trips    int64 // ddlint:guarded-by mu
	probes   int64 // ddlint:guarded-by mu
	restores int64 // ddlint:guarded-by mu
}

// newBreaker returns a closed breaker. reg may be nil (no events exported).
func newBreaker(cfg BreakerConfig, reg *metrics.Registry, name string) *breaker {
	cfg.defaults()
	return &breaker{cfg: cfg, reg: reg, name: name}
}

// allow reports whether an operation may reach the device at virtual time
// now. Open breakers transition to half-open once the cooldown elapses;
// half-open breakers admit all traffic as probes. Nil-safe: a nil breaker
// always allows.
func (b *breaker) allow(now time.Duration) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now >= b.openedAt+b.cfg.Cooldown {
			b.state = breakerHalfOpen
			b.streak = 0
			b.setStateGauge()
			b.probes++
			b.event(".probe")
			return true
		}
		return false
	default: // breakerHalfOpen
		b.probes++
		b.event(".probe")
		return true
	}
}

// onSuccess records a successful device operation. Enough consecutive
// successes in the half-open state restore (close) the breaker. Nil-safe.
func (b *breaker) onSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerHalfOpen {
		return
	}
	b.streak++
	if b.streak >= b.cfg.Probes {
		b.state = breakerClosed
		b.errAt = b.errAt[:0]
		b.restores++
		b.setStateGauge()
		b.event(".restore")
	}
}

// onFailure records a failed device operation at virtual time now: in the
// closed state it trips the breaker once Threshold errors accumulate
// inside Window; in the half-open state any failure re-trips immediately.
// Nil-safe.
func (b *breaker) onFailure(now time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.tripLocked(now)
	case breakerClosed:
		// Prune errors that slid out of the window, then append.
		cut := 0
		for cut < len(b.errAt) && b.errAt[cut]+b.cfg.Window < now {
			cut++
		}
		b.errAt = append(b.errAt[:0], b.errAt[cut:]...)
		b.errAt = append(b.errAt, now)
		if len(b.errAt) >= b.cfg.Threshold {
			b.tripLocked(now)
		}
	}
}

// feed reports a device operation's outcome at virtual time now.
// Nil-safe.
func (b *breaker) feed(now time.Duration, err error) {
	if err != nil {
		b.onFailure(now)
	} else {
		b.onSuccess()
	}
}

// tripLocked moves the breaker to open. Requires b.mu.
//
// ddlint:requires-lock mu
func (b *breaker) tripLocked(now time.Duration) {
	b.state = breakerOpen
	b.openedAt = now
	b.streak = 0
	b.errAt = b.errAt[:0]
	b.trips++
	b.setStateGauge()
	b.event(".trip")
}

// snapshot returns the breaker's counters. Nil-safe (zero stats, state
// "closed").
func (b *breaker) snapshot() BreakerStats {
	if b == nil {
		return BreakerStats{State: breakerClosed.String()}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:    b.state.String(),
		Trips:    b.trips,
		Probes:   b.probes,
		Restores: b.restores,
	}
}

// event increments the named breaker event counter. Requires b.mu (called
// from transition paths).
//
// ddlint:requires-lock mu
func (b *breaker) event(suffix string) {
	if b.reg == nil {
		return
	}
	b.reg.Counter(b.name + suffix).Inc()
}

// setStateGauge exports the current state (0 closed, 1 open, 2 half-open).
// Requires b.mu.
//
// ddlint:requires-lock mu
func (b *breaker) setStateGauge() {
	if b.reg == nil {
		return
	}
	b.reg.Gauge(b.name + ".state").Set(int64(b.state))
}
