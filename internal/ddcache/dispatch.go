package ddcache

import (
	"time"

	"doubledecker/internal/cleancache"
)

// Dispatch implements cleancache.Backend: the single op-based entry
// point of the guest↔hypervisor boundary. It routes each Request to the
// corresponding manager operation; the typed methods (Get, Put,
// CreatePool, ...) remain available for direct in-process use.
//
// When Config.MaxInflightOps is set, the data-path ops (get, put,
// readahead) pass through hypervisor-wide admission control first: a
// submission arriving while the budget is exhausted is shed as an
// immediate miss (Ok=false / Count=0, zero latency — the guest falls
// back to disk) and counted on ShedOps. Control ops and flushes are
// always admitted; shedding an invalidation would break the cleancache
// contract.
func (m *Manager) Dispatch(now time.Duration, req cleancache.Request) cleancache.Response {
	resp := cleancache.Response{Op: req.Op}
	switch req.Op {
	case cleancache.OpGet, cleancache.OpPut, cleancache.OpReadAhead:
		if max := m.cfg.MaxInflightOps; max > 0 {
			if m.inflightOps.Add(1) > max {
				m.inflightOps.Add(-1)
				m.shedOps.Add(1)
				return resp // Ok=false, Count=0: an immediate miss
			}
			defer m.inflightOps.Add(-1)
		}
	default: // ddlint:nonexhaustive — control ops and flushes bypass admission
	}
	switch req.Op {
	case cleancache.OpGet:
		resp.Ok, resp.Latency = m.Get(now, req.VM, req.Key)
	case cleancache.OpPut:
		resp.Ok, resp.Latency = m.Put(now, req.VM, req.Key)
	case cleancache.OpFlushPage:
		resp.Latency = m.FlushPage(now, req.VM, req.Key)
	case cleancache.OpFlushInode:
		resp.Latency = m.FlushInode(now, req.VM, req.Key.Pool, req.Key.Inode)
	case cleancache.OpCreateCgroup:
		resp.Pool, resp.Latency = m.CreatePool(now, req.VM, req.Name, req.Spec)
		resp.Ok = resp.Pool != 0
	case cleancache.OpDestroyCgroup:
		resp.Latency = m.DestroyPool(now, req.VM, req.Key.Pool)
	case cleancache.OpSetCgWeight:
		resp.Latency = m.SetSpec(now, req.VM, req.Key.Pool, req.Spec)
	case cleancache.OpMigrateObject:
		resp.Latency = m.MigrateInode(now, req.VM, req.Key.Pool, req.To, req.Key.Inode)
	case cleancache.OpGetStats:
		resp.Ok = true
		resp.Stats = m.PoolStats(req.VM, req.Key.Pool)
	case cleancache.OpReadAhead:
		resp.Count, resp.Latency = m.ReadAhead(now, req.VM, req.Key, req.Count)
		resp.Ok = resp.Count > 0
	}
	return resp
}
