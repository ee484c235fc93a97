// The metric names and units the benchmark emits, in reporting order.
// BENCHMARK.json lists the same names with their regression bounds; the
// smoke test checks the two agree.

package main

// metricDef names one metric. "host" metrics are wall-clock costs of the Go
// code; units ending in _sim are modelled virtual time.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the system sees, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_ops_per_s", "ops/s"},
	{"host_cpu_ns_per_op", "ns"},
	{"host_allocs_per_op", "allocs"},
	{"host_alloc_bytes_per_op", "B"},
	{"host_live_heap_mib", "MiB"},
	{"sim_mib_per_s", "MiB/s_sim"},
	{"sim_op_p50_us", "us_sim"},
	{"sim_op_p99_us", "us_sim"},
	{"sim_hit_pct", "%"},
}

// perLayer is what the traced run reports. A layer that a workload does
// not run (the guest on mgr-mixed, the SSD store on stream-hit) reports 0.
var perLayer = []metricDef{
	{"guest.steps", "count"},
	{"guest.host_self_ns_per_op", "ns"},
	{"guest.host_incl_ns_per_op", "ns"},
	{"guest.sim_lat_us_mean", "us_sim"},
	{"guest.pagecache_hit_pct", "%"},
	{"guest.front_readaheads", "count"},
	{"guest.disk_fallback_pct", "%"},

	{"hypercall.calls", "count"},
	{"hypercall.host_self_ns_per_op", "ns"},
	{"hypercall.sim_lat_us_mean", "us_sim"},
	{"hypercall.crossings", "count"},
	{"hypercall.ops_per_crossing", "ops"},
	{"hypercall.staged_hit_pct", "%"},
	{"hypercall.staged_waste_pct", "%"},
	{"hypercall.pages_mapped_pct", "%"},
	{"hypercall.retries", "count"},

	{"ddcache.dispatches", "count"},
	{"ddcache.host_self_ns_per_dispatch", "ns"},
	{"ddcache.get_hit.host_ns", "ns"},
	{"ddcache.get_miss.host_ns", "ns"},
	{"ddcache.put.host_ns", "ns"},
	{"ddcache.put_evict.host_ns", "ns"},
	{"ddcache.readahead.host_ns", "ns"},
	{"ddcache.flush.host_ns", "ns"},
	{"ddcache.sim_lat_us_mean", "us_sim"},
	{"ddcache.hit_pct", "%"},
	{"ddcache.evictions", "count"},
	{"ddcache.demotions", "count"},
	{"ddcache.put_reject_pct", "%"},
	{"ddcache.demote_drop_pct", "%"},

	{"policy.selections", "count"},
	{"policy.host_ns_per_selection", "ns"},

	{"store.mem.calls", "count"},
	{"store.mem.host_ns_per_call", "ns"},
	{"store.mem.sim_lat_us_mean", "us_sim"},
	{"store.ssd.calls", "count"},
	{"store.ssd.host_ns_per_call", "ns"},
	{"store.ssd.sim_lat_us_mean", "us_sim"},
	{"store.remote.calls", "count"},
	{"store.remote.host_ns_per_call", "ns"},
	{"store.remote.sim_lat_us_mean", "us_sim"},
	{"store.errors", "count"},

	{"blockdev.reads", "count"},
	{"blockdev.writes", "count"},
	{"blockdev.host_ns_per_call", "ns"},
	{"blockdev.sim_read_lat_us_mean", "us_sim"},
	{"blockdev.sim_busy_pct", "%"},

	{"sim.host_self_ns_per_op", "ns"},
	{"sim.host_halves_ratio", "ratio"},
	{"trace.overhead_pct", "%"},

	// The issue lists these two end to end. They are 0 on some workload at
	// the seed commit (no transport on mgr-mixed, no fault plan anywhere),
	// and a bound is a share of the parent's median, so they are reported
	// here; failed ops are also the result line's own "failed" count.
	{"sim_crossings_per_kop", "calls"},
	{"failed_ops_pct", "%"},
}
