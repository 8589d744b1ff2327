package main

// metricDef names one reported metric.  BENCHMARK.json at the
// repository root lists the same metrics (plus the end-to-end bounds);
// TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of the untraced run: what a user of the
// simulator, the corpus tool or the daemon sees.  Every workload reports
// every one of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_cycles_per_s", "1/s", "higher"},
	{"alloc_bytes_per_cycle", "B/cycle", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
}

// perLayer are the metrics of the traced run, named <module>.<metric>.
// A layer a workload does not pass through reports 0.
var perLayer = []metricDef{
	{"sim.compile.ms", "ms", "lower"},
	{"sim.new_state.us", "us", "lower"},
	{"sim.reset.us", "us", "lower"},
	{"sim.run.self_ns_per_cycle", "ns/cycle", "lower"},
	{"sim.cycles", "count", "higher"},
	{"sim.alloc_bytes_per_run", "B/run", "lower"},

	{"sched.core.init.us", "us", "lower"},
	{"sched.core.cycle_start.ns", "ns", "lower"},
	{"sched.core.static_slot.calls", "count", "lower"},
	{"sched.core.static_slot.ns", "ns", "lower"},
	{"sched.core.static_slot.tx_ratio", "ratio", "higher"},
	{"sched.core.dynamic_slot.calls", "count", "lower"},
	{"sched.core.dynamic_slot.ns", "ns", "lower"},
	{"sched.core.dynamic_slot.tx_ratio", "ratio", "higher"},
	{"sched.core.result.ns", "ns", "lower"},
	{"sched.fspec.init.us", "us", "lower"},
	{"sched.fspec.cycle_start.ns", "ns", "lower"},
	{"sched.fspec.static_slot.calls", "count", "lower"},
	{"sched.fspec.static_slot.ns", "ns", "lower"},
	{"sched.fspec.static_slot.tx_ratio", "ratio", "higher"},
	{"sched.fspec.dynamic_slot.calls", "count", "lower"},
	{"sched.fspec.dynamic_slot.ns", "ns", "lower"},
	{"sched.fspec.dynamic_slot.tx_ratio", "ratio", "higher"},
	{"sched.fspec.result.ns", "ns", "lower"},
	{"slack.stolen_tx", "count", "higher"},
	{"core.retx_tx", "count", "lower"},
	{"fspec.redundant_tx", "count", "lower"},

	{"fault.corrupts.calls", "count", "lower"},
	{"fault.corrupts.ns", "ns", "lower"},
	{"fault.corrupt_ratio", "ratio", "lower"},

	{"trace.events", "count", "lower"},
	{"trace.events.tx-start", "count", "lower"},
	{"trace.events.fault", "count", "lower"},
	{"trace.events.retransmit", "count", "lower"},
	{"trace.events.drop", "count", "lower"},
	{"trace.events.deadline-miss", "count", "lower"},
	{"trace.record.ns", "ns", "lower"},
	{"trace.hash.ms", "ms", "lower"},

	{"pool.busy_ratio", "ratio", "higher"},
	{"experiment.setup.ms", "ms", "lower"},
	{"corpus.generate.ms", "ms", "lower"},
	{"corpus.check.ms", "ms", "lower"},

	{"serve.admit.ms.p50", "ms", "lower"},
	{"serve.admit.ms.p99", "ms", "lower"},
	{"serve.queue_wait.ms.p50", "ms", "lower"},
	{"serve.queue_wait.ms.p99", "ms", "lower"},
	{"serve.attempt.ms.p50", "ms", "lower"},
	{"serve.attempt.ms.p99", "ms", "lower"},
	{"serve.persist.ms", "ms", "lower"},
	{"serve.done_lag.ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.queue_depth.max", "count", "lower"},
	{"serve.reconcile_error", "ratio", "lower"},
	{"loadgen.lateness.ms.max", "ms", "lower"},
	{"journal.write.calls", "count", "lower"},
	{"journal.bytes", "B", "lower"},
	{"journal.fsync.ms.p50", "ms", "lower"},
	{"journal.fsync.ms.p99", "ms", "lower"},
	{"resultstore.fsync.ms", "ms", "lower"},

	{"trace_overhead", "ratio", "lower"},
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"fig5-mc", "makespan", "corpus-quick", "daemon-mix"}
