package main

// metricSpec declares one reported metric. BENCHMARK.json lists the same
// names and units; the spec test holds the two in step.
type metricSpec struct {
	name, unit, better string
}

// tailQ is the tail quantile tail_ms reports: p90. A round of mixed's
// closed loop completes about 300 reads, which leaves 30 samples beyond p90
// but only three beyond p99.
const tailQ = 0.9

// endToEnd are the metrics every workload reports with tracing off, each
// the median over the run's rounds. The headline op is the workload's own:
// a closed-loop EvaluateSubject on trust-read, a closed-loop transaction's
// quorum read on mixed, a simulated hiREP transaction on paper-sim.
// Failures are not a metric: every op must succeed, and the result's
// attempted and failed counts carry them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},      // median of the run's set-ups
	{"rss_peak_mb", "MB", "lower"}, // process peak RSS
	{"p50_ms", "ms", "lower"},      // headline op median
	{"tail_ms", "ms", "lower"},     // headline op at tailQ
	{"ops_s", "1/s", "higher"},     // work per CPU-second: closed-loop ops, or sim transactions
}

// perLayer are the metrics a traced run reports. A layer a workload does not
// reach reads 0: nothing was counted there.
var perLayer = []metricSpec{
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.late_max_ms", "ms", "lower"},
	{"onion.peels_per_op", "count", "lower"},
	{"onion.peel_us", "us", "lower"},
	{"onion.verifysig_us", "us", "lower"},
	{"pkc.seal_us", "us", "lower"},
	{"pkc.open_us", "us", "lower"},
	{"pkc.sign_us", "us", "lower"},
	{"pkc.verify_us", "us", "lower"},
	{"pkc.verifybatch_us_per_sig", "us", "lower"},
	{"node.trust_served_per_op", "count", "lower"},
	{"node.frames_in_per_op", "count", "lower"},
	{"node.report_batches", "count", "higher"},
	{"node.ingest_shed_frac", "ratio", "lower"},
	{"node.repl_shipped_frac", "ratio", "higher"},
	{"transport.frames_out_per_op", "count", "lower"},
	{"transport.bytes_out_per_op", "B", "lower"},
	{"transport.writes_per_op", "count", "lower"},
	{"transport.write_us_per_op", "us", "lower"},
	{"transport.dials", "count", "lower"},
	{"repstore.wal_bytes_per_report", "B", "lower"},
	{"repstore.commit_us_per_report", "us", "lower"},
	{"repstore.reports_stored", "count", "higher"},
	{"repstore.replica_lag_reports", "count", "lower"},
	{"proof.verify_ms", "ms", "lower"},
	{"proof.assemble_us", "us", "lower"},
	{"proof.bundle_bytes", "B", "lower"},
	{"proof.cache_hit_ratio", "ratio", "higher"},
	{"proof.partial_frac", "ratio", "lower"},
	{"audit.sweep_ms", "ms", "lower"},
	{"audit.probes_per_sweep", "count", "higher"},
	{"audit.failures", "count", "lower"},
	{"resilience.retries", "count", "lower"},
	{"resilience.breaker_opens", "count", "lower"},
	{"resilience.outbox_depth_max", "count", "lower"},
	{"process.cpu_ms_per_op", "ms", "lower"},
	{"process.allocs_per_op", "count", "lower"},
	{"process.alloc_bytes_per_op", "B", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.gc_pause_ms", "ms", "lower"},
	{"process.goroutines_max", "count", "lower"},
	{"topology.generate_ms", "ms", "lower"},
	{"core.bootstrap_ms", "ms", "lower"},
	{"core.tx_us", "us", "lower"},
	{"core.maint_msgs_per_tx", "count", "lower"},
	{"simnet.msgs_per_tx", "count", "lower"},
	{"simnet.events_s", "1/s", "higher"},
	{"simnet.peak_queue", "count", "lower"},
	{"voting.msgs_per_tx", "count", "lower"},
	{"voting.tx_ms", "ms", "lower"},
	{"self.gen_us_per_op", "us", "lower"},
	{"self.node_us_per_op", "us", "lower"},
	{"self.audit_us_per_op", "us", "lower"},
	{"self.core_us_per_op", "us", "lower"},
	{"self.voting_us_per_op", "us", "lower"},
	{"trace.overhead_p50_ms", "ms", "lower"},
	{"trace.overhead_ops_frac", "ratio", "higher"},
}

// conform returns exactly the declared metrics: values the workload
// measured, 0 for layers it did not reach. It reports names the workload
// produced but the spec does not declare, and declared end-to-end metrics
// it failed to produce.
func conform(specs []metricSpec, got map[string]metric, zeroMissing bool) (map[string]metric, []string) {
	out := make(map[string]metric, len(specs))
	known := make(map[string]bool, len(specs))
	var problems []string
	for _, s := range specs {
		known[s.name] = true
		m, ok := got[s.name]
		switch {
		case ok:
			out[s.name] = metric{m.Value, s.unit}
		case zeroMissing:
			out[s.name] = metric{0, s.unit}
		default:
			problems = append(problems, "missing metric "+s.name)
		}
	}
	for name := range got {
		if !known[name] {
			problems = append(problems, "undeclared metric "+name)
		}
	}
	return out, problems
}
