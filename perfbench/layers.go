package main

// perLayer lists the metrics a traced run reports, in output order,
// with their units; BENCHMARK.json's per_layer list mirrors it. A layer
// a workload does not run reads 0 there.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, g := range kindGroups {
		add("count", "transport.send."+g+".count")
		add("us", "transport.send."+g+".p50_us", "transport.send."+g+".p99_us")
	}
	add("B/op", "transport.bytes_per_op")
	add("count", "transport.send_errors")
	for _, g := range kindGroups {
		add("us", "node.handle."+g+".p50_us", "node.handle."+g+".p99_us", "node.wire_overhead."+g+"_us")
	}
	add("1/op", "node.syncs_per_put", "node.forwards_per_get", "node.sync_fails_per_put")
	add("us", "node.epoch.flush_p50_us", "node.epoch.flush_p99_us", "node.epoch.run_p50_us", "node.epoch.run_p99_us")
	add("1/op", "durable.wal_records_per_put")
	add("1/kop", "durable.compactions_per_kput")
	add("ratio", "durable.write_bytes_per_user_byte")
	add("s", "durable.restart_s")
	add("1/epoch", "policy.replicate_per_epoch", "policy.migrate_per_epoch", "policy.suicide_per_epoch")
	add("count", "xfer.full_sessions", "xfer.delta_sessions", "xfer.one_frame")
	add("B", "xfer.bytes_sent", "xfer.bytes_saved")
	add("count", "ae.rounds")
	add("B", "ae.payload_bytes")
	add("count", "ae.healed")
	add("us", "sim.workload.epoch_p50_us", "sim.policy.decide_p50_us", "sim.policy.decide_p99_us", "sim.step_other_p50_us")
	add("1/epoch", "sim.actions_per_epoch", "sim.allocs_per_epoch")
	add("B/epoch", "sim.alloc_bytes_per_epoch")
	add("ms/s", "go.gc_pause_ms_per_s")
	add("1/op", "go.allocs_per_op")
	add("%", "trace.overhead_p50_pct", "trace.overhead_ops_pct")
	add("count", "trace.spans", "trace.spans_dropped")
	// The untraced pass's workload-specific end-to-end figures.
	add("1/s", "e2e.ops_per_s")
	add("us", "e2e.put_p50_us", "e2e.put_p99_us", "e2e.get_p50_us", "e2e.get_p99_us")
	add("ratio", "e2e.op_error_ratio")
	add("B", "e2e.heap_bytes_per_key")
	add("ratio", "e2e.disk_bytes_per_user_byte")
	add("s", "e2e.rejoin_s")
	add("B", "e2e.repair_bytes")
	add("1/s", "e2e.epochs_per_s")
	add("ms", "e2e.step_p50_ms", "e2e.step_p99_ms")
	return out
}()
