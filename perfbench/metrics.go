package main

// metricDef names one reported metric and, for per-layer metrics, the
// end-to-end metric and workload a change to that layer should move.
// BENCHMARK.json lists the same names and README.md defines them;
// the "moves" text is kept here only.
type metricDef struct {
	name  string
	moves string
}

var endToEndMetrics = []metricDef{
	{name: "jobs_per_s"},
	{name: "setup_s"},
	{name: "peak_rss_mb"},
	{name: "alloc_bytes_per_job"},
	{name: "startup_mean_s"},
	{name: "turnaround_p50_h"},
	{name: "turnaround_p99_h"},
	{name: "goodput_pct"},
}

var perLayerMetrics = []metricDef{
	{"workload.next_ns_per_job", "jobs_per_s and setup_s, replay-day"},
	{"workload.records_per_s", "jobs_per_s and setup_s, replay-day"},
	{"workload.allocs_per_record", "jobs_per_s and setup_s, replay-day"},
	{"simclock.ns_per_event", "jobs_per_s, replay-day"},
	{"simclock.allocs_per_event", "jobs_per_s, replay-day"},
	{"simclock.pending_peak", "jobs_per_s, replay-day"},
	{"simclock.runfor_self_ns_per_job", "jobs_per_s, replay-day"},
	{"infosys.publish_per_job", "jobs_per_s, replay-wide"},
	{"infosys.publish_ns", "jobs_per_s, replay-wide"},
	{"infosys.discover_per_job", "jobs_per_s, replay-wide"},
	{"infosys.discover_ns", "jobs_per_s, replay-wide"},
	{"infosys.subscribe_per_job", "jobs_per_s, jdl-churn"},
	{"infosys.subscribe_ns", "jobs_per_s, jdl-churn"},
	{"infosys.gaps_per_job", "jobs_per_s, jdl-churn"},
	{"broker.submit_ns", "jobs_per_s, every workload"},
	{"broker.match_pass_ns", "jobs_per_s, the workload measured"},
	{"broker.match_scanned_per_pass", "jobs_per_s, the workload measured"},
	{"broker.match_allocs_per_pass", "jobs_per_s and alloc_bytes_per_job, the workload measured"},
	{"broker.match_deltas_per_pass", "jobs_per_s, jdl-churn"},
	{"broker.match_repins_per_pass", "jobs_per_s, jdl-churn"},
	{"broker.leases_per_job", "model count: flat under a pure speed change"},
	{"broker.resubmits_per_job", "model count: flat under a pure speed change"},
	{"site.commits_per_job", "model count: flat under a pure speed change"},
	{"glidein.shared_pct", "model count: flat under a pure speed change"},
	{"glidein.free_agents_peak", "model count: flat under a pure speed change"},
	{"jdl.parse_ns_per_job", "jobs_per_s, jdl-churn"},
	{"jdl.eval_ns", "jobs_per_s, jdl-churn"},
	{"trace.overhead_pct", "none: tracing is off in end-to-end runs"},
	{"trace.events_per_job", "none: tracing is off in end-to-end runs"},
	{"trace.check_ns_per_event", "none: tracing is off in end-to-end runs"},
	{"trace.export_ns_per_event", "none: tracing is off in end-to-end runs"},
	{"runtime.gc_per_kjob", "jobs_per_s and alloc_bytes_per_job, replay-day"},
	{"runtime.gc_cpu_fraction", "jobs_per_s and alloc_bytes_per_job, replay-day"},
	{"runtime.mallocs_per_job", "jobs_per_s and alloc_bytes_per_job, replay-day"},
}
