package ddcache

import (
	"sync"

	"doubledecker/internal/metrics"
)

// dedupShards is the stripe width of the content-reference table.
// 64 shards keep the collision probability of two concurrent putters
// landing on the same shard mutex below 2% at 8 writers while costing
// under 8 KiB of table headers.
const dedupShards = 64

// dedupShard is one stripe of the content-reference table. Each shard
// self-locks; shard mutexes are leaves of the lock hierarchy (acquired
// below any VM lock, never while holding another shard).
type dedupShard struct {
	// mu guards this shard's slice of the reference-count map.
	mu sync.Mutex
	// refs holds the logical reference counts per (store, content) that
	// hash onto this shard; the physical copy is charged once.
	// ddlint:guarded-by mu
	refs map[contentKey]int64
}

// dedupTable is the N-way sharded content-reference table that replaces
// the old manager-global dedupMu: contentKey hashes select a shard, so
// concurrent putters of unrelated content never contend.
type dedupTable struct {
	shards []dedupShard
	// saved counts the physical bytes avoided by sharing, striped by
	// shard index so the hot path never serializes on one cache line.
	saved *metrics.StripedCounter
}

func newDedupTable() *dedupTable {
	t := &dedupTable{
		shards: make([]dedupShard, dedupShards),
		saved:  metrics.NewStripedCounter(dedupShards),
	}
	for i := range t.shards {
		// Construction is single-threaded, but take the shard lock anyway
		// so the guarded-by contract holds everywhere it is written.
		s := &t.shards[i]
		s.mu.Lock()
		s.refs = make(map[contentKey]int64)
		s.mu.Unlock()
	}
	return t
}

// shardOf hashes ck onto a shard index (fibonacci hashing over the
// content identity mixed with the store type).
func (t *dedupTable) shardOf(ck contentKey) int {
	h := (ck.content ^ uint64(ck.store)<<56) * 0x9E3779B97F4A7C15
	return int((h >> 33) % uint64(len(t.shards)))
}

// peek reports the current reference count for ck.
func (t *dedupTable) peek(ck contentKey) int64 {
	s := &t.shards[t.shardOf(ck)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[ck]
}

// acquire takes one logical reference on ck and reports whether the
// physical copy is shared (a copy already existed). A shared acquire
// credits size bytes to the dedup savings counter.
func (t *dedupTable) acquire(ck contentKey, size int64) (shared bool) {
	i := t.shardOf(ck)
	s := &t.shards[i]
	s.mu.Lock()
	s.refs[ck]++
	shared = s.refs[ck] > 1
	s.mu.Unlock()
	if shared {
		t.saved.Add(i, size)
	}
	return shared
}

// undo drops the reference taken by a failed first-copy write: the
// physical copy was never stored, so the count simply rolls back.
func (t *dedupTable) undo(ck contentKey) {
	s := &t.shards[t.shardOf(ck)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refs[ck] <= 1 {
		delete(s.refs, ck)
	} else {
		s.refs[ck]--
	}
}

// release drops one logical reference and reports whether the caller
// now owns the physical copy (last reference gone → free the bytes).
func (t *dedupTable) release(ck contentKey) (last bool) {
	s := &t.shards[t.shardOf(ck)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refs[ck] > 1 {
		s.refs[ck]--
		return false
	}
	delete(s.refs, ck)
	return true
}

// savedBytes reports the cumulative physical bytes avoided by sharing.
func (t *dedupTable) savedBytes() int64 { return t.saved.Value() }

// entries counts live reference-count records across all shards (cold
// path: walks every shard under its lock).
func (t *dedupTable) entries() int64 {
	var n int64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += int64(len(s.refs))
		s.mu.Unlock()
	}
	return n
}

// minRef returns the smallest reference count in the table (and true),
// or (0, false) when the table is empty. Test/invariant hook: counts
// must never go non-positive.
func (t *dedupTable) minRef() (int64, bool) {
	var (
		minv  int64
		found bool
	)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, n := range s.refs {
			if !found || n < minv {
				minv, found = n, true
			}
		}
		s.mu.Unlock()
	}
	return minv, found
}
