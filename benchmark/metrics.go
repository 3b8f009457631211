package main

// metricDef names one reported number. The two tables below are the
// program's copy of BENCHMARK.json's end_to_end and per_layer lists; the
// smoke test fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them in the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"jobs_per_s", "jobs/s", higher, 0.25},
	{"latency_tail_ms", "ms", lower, 0.25},
	{"alloc_mb_per_job", "MB", lower, 0.06},
}

// perLayer are the numbers of single layers (this repo's packages), read
// from outside: timed calls into exported functions and exported counters.
// A workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	// compile pipeline, from the set-up repeats
	{Name: "idlang.compile_ms", Unit: "ms", Better: lower},
	{Name: "translate.translate_ms", Unit: "ms", Better: lower},
	{Name: "partition.partition_ms", Unit: "ms", Better: lower},
	{Name: "isa.program_instrs", Unit: "count", Better: lower},
	{Name: "isa.program_templates", Unit: "count", Better: lower},

	// isa
	{Name: "isa.evalscalar_ns_op", Unit: "ns/op", Better: lower},
	{Name: "isa.marshal_pods_us", Unit: "us", Better: lower},
	{Name: "isa.unmarshal_pods_us", Unit: "us", Better: lower},
	{Name: "isa.pods_bytes", Unit: "bytes", Better: lower},

	// istructure, seeded op sequences on Shard's public API
	{Name: "istructure.write_ns_op", Unit: "ns/op", Better: lower},
	{Name: "istructure.readlocal_ns_op", Unit: "ns/op", Better: lower},
	{Name: "istructure.deferred_ns_op", Unit: "ns/op", Better: lower},
	{Name: "istructure.offset_ns_op", Unit: "ns/op", Better: lower},
	{Name: "istructure.cachelookup_ns_op", Unit: "ns/op", Better: lower},
	{Name: "istructure.installpage_ns_op", Unit: "ns/op", Better: lower},
	{Name: "istructure.install_evict_ns_op", Unit: "ns/op", Better: lower},
	{Name: "istructure.extractpage_ns_op", Unit: "ns/op", Better: lower},

	// sim: the timed runs on simple_sim, the reference run elsewhere
	{Name: "sim.minstr_per_s", Unit: "Minstr/s", Better: higher},
	{Name: "sim.allocs_per_kinstr", Unit: "allocs/kinstr", Better: lower},
	{Name: "sim.virtual_ms", Unit: "ms", Better: lower},
	{Name: "sim.virtual_speedup", Unit: "ratio", Better: higher},
	{Name: "sim.eu_utilization", Unit: "ratio", Better: higher},
	{Name: "sim.small_msgs", Unit: "count", Better: lower},
	{Name: "sim.page_msgs", Unit: "count", Better: lower},
	{Name: "sim.ctx_switches", Unit: "count", Better: lower},
	{Name: "sim.reference_s", Unit: "s", Better: lower},

	// podsrt, diagnostic
	{Name: "podsrt.wall_s", Unit: "s", Better: lower},
	{Name: "podsrt.allocs_per_job", Unit: "count", Better: lower},

	// cluster, per job, from Stats/PEStats/PEInstrs
	{Name: "cluster.instrs", Unit: "count", Better: lower},
	{Name: "cluster.minstr_per_s_per_pe", Unit: "Minstr/s", Better: higher},
	{Name: "cluster.msgs_sent", Unit: "count", Better: lower},
	{Name: "cluster.msgs_per_kinstr", Unit: "msgs/kinstr", Better: lower},
	{Name: "cluster.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cluster.cache_misses", Unit: "count", Better: lower},
	{Name: "cluster.deferred_reads", Unit: "count", Better: lower},
	{Name: "cluster.evictions", Unit: "count", Better: lower},
	{Name: "cluster.refetch_ratio", Unit: "ratio", Better: lower},
	{Name: "cluster.prefetch_useful_ratio", Unit: "ratio", Better: higher},
	{Name: "cluster.steals", Unit: "count", Better: lower},
	{Name: "cluster.forwards", Unit: "count", Better: lower},
	{Name: "cluster.rebounds", Unit: "count", Better: lower},
	{Name: "cluster.pe_imbalance", Unit: "ratio", Better: lower},
	{Name: "cluster.allocs_per_kinstr", Unit: "allocs/kinstr", Better: lower},
	{Name: "cluster.alloc_bytes_per_instr", Unit: "bytes", Better: lower},

	// cluster transport and control plane
	{Name: "cluster.tcp_over_chan_ratio", Unit: "ratio", Better: lower},
	{Name: "cluster.tcp_extra_us_per_msg", Unit: "us", Better: lower},
	{Name: "cluster.fleet_open_ms", Unit: "ms", Better: lower},
	{Name: "cluster.submit_floor_ms", Unit: "ms", Better: lower},
	{Name: "cluster.submitjob_floor_ms", Unit: "ms", Better: lower},
	{Name: "cluster.probe_rounds", Unit: "count", Better: lower},
	{Name: "cluster.termination_tail_ms", Unit: "ms", Better: lower},
	{Name: "cluster.busy_round_share", Unit: "ratio", Better: higher},
	{Name: "cluster.mix_p50_ms.matmul", Unit: "ms", Better: lower},
	{Name: "cluster.mix_p50_ms.heat", Unit: "ms", Better: lower},
	{Name: "cluster.mix_p50_ms.relax", Unit: "ms", Better: lower},
	{Name: "cluster.mix_p50_ms.triangular", Unit: "ms", Better: lower},
	{Name: "cluster.latency_p99_ms", Unit: "ms", Better: lower},
	{Name: "cluster.latency_max_ms", Unit: "ms", Better: lower},
	{Name: "cluster.jobs_rejected", Unit: "count", Better: lower},

	// cluster/trace
	{Name: "trace.record_ns_op", Unit: "ns/op", Better: lower},
	{Name: "trace.record_allocs_op", Unit: "allocs/op", Better: lower},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "trace.events", Unit: "count", Better: higher},
	{Name: "trace.drops", Unit: "count", Better: lower},
	{Name: "trace.sp_dispatches", Unit: "count", Better: higher},
	{Name: "trace.page_fetches", Unit: "count", Better: lower},

	// simple, the plain single-threaded baseline
	{Name: "simple.native_step_ms", Unit: "ms", Better: lower},
	{Name: "simple.slowdown_vs_native", Unit: "ratio", Better: lower},

	// process and harness
	{Name: "go.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "go.num_gc", Unit: "count", Better: lower},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: lower},
	{Name: "bench.harness_self_ms", Unit: "ms", Better: lower},
	{Name: "bench.spread_iqr_ratio", Unit: "ratio", Better: lower},
	{Name: "bench.host_speed", Unit: "ratio", Better: higher},
	{Name: "bench.raw_wall_s", Unit: "s", Better: lower},
}

// measured is what a run accumulates: metric name → value.
type measured map[string]float64
