package oracle

import (
	"sync"
	"time"

	"doubledecker/internal/cleancache"
)

// Sequential wraps any cleancache.Backend in one global mutex, making a
// single-threaded implementation (such as an Oracle) safe for concurrent
// dispatch. With HoldLatency set the lock is additionally held for each
// operation's modeled device latency, turning the wrapper into the
// single-lock strawman of ddcache's TestShardedScaling: a manager whose global
// lock serializes every guest's device wait admits exactly one
// in-flight operation, so adding guests adds no throughput.
type Sequential struct {
	mu    sync.Mutex
	inner cleancache.Backend
	// HoldLatency sleeps each response's modeled latency while still
	// holding the lock (scaling-baseline mode).
	HoldLatency bool
}

// NewSequential wraps inner in a global dispatch mutex.
func NewSequential(inner cleancache.Backend, holdLatency bool) *Sequential {
	return &Sequential{inner: inner, HoldLatency: holdLatency}
}

var _ cleancache.Backend = (*Sequential)(nil)

// Dispatch implements cleancache.Backend under the global mutex.
func (s *Sequential) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := s.inner.Dispatch(now, req)
	if s.HoldLatency && resp.Latency > 0 {
		time.Sleep(resp.Latency)
	}
	return resp
}
