#ifndef PRISMA_OBS_METRIC_NAMES_H_
#define PRISMA_OBS_METRIC_NAMES_H_

// Registry of every metric series and tracer span name the simulator may
// emit (lint rule D8, DESIGN.md §9). The lint cross-checks both ways:
// a GetCounter/LazyCounter/Span literal missing here fails (a typo'd name
// would silently start a new series), and an entry no call site uses
// fails (deleted metrics may not leave ghost entries behind).
//
// Names use "<subsystem>.<measure>" with snake_case measures. Only string
// literals are checked — a computed name cannot be registered and is
// therefore banned from these call sites by construction.

namespace prisma::obs {

/// Counter, gauge and histogram series (GetCounter / GetGauge /
/// GetHistogram / LazyCounter literals).
inline constexpr const char* kRegisteredMetricNames[] = {
    // PRISMA_METRICS_BEGIN
    "disk.busy_ns",
    "disk.bytes",
    "disk.queue_wait_ns",
    "disk.records_per_write",
    "disk.writes",
    "exchange.batches_received",
    "exchange.batches_sent",
    "exchange.bytes",
    "exchange.credit",
    "exchange.dup_batches",
    "exchange.retransmits",
    "exchange.stalls",
    "exchange.wire_bits",
    "fixpoint.batches_received",
    "fixpoint.batches_sent",
    "fixpoint.delta_tuples",
    "fixpoint.dup_batches",
    "fixpoint.last_delta_tuples",
    "fixpoint.last_pairs_derived",
    "fixpoint.last_result_bits",
    "fixpoint.last_rounds",
    "fixpoint.last_wire_bits",
    "fixpoint.result_bits",
    "fixpoint.retransmits",
    "fixpoint.rounds",
    "fixpoint.wire_bits",
    "gdh.2pc_rounds",
    "gdh.coords_reaped",
    "gdh.deadlock_aborts",
    "gdh.decisions_deferred",
    "gdh.dup_replies",
    "gdh.one_phase_commits",
    "gdh.rpc_failures",
    "gdh.rpc_retries",
    "gdh.selects_spawned",
    "gdh.statements",
    "gdh.txns_aborted",
    "gdh.txns_begun",
    "gdh.txns_committed",
    "gdh.txns_doomed",
    "gdh.write_ops_sent",
    "lock.deadlocks_detected",
    "lock.granted",
    "lock.waits",
    "net.backpressure",
    "net.delayed_ns",
    "net.dropped",
    "net.duplicated",
    "net.latency_ns",
    "net.link_bits",
    "net.messages_delivered",
    "net.messages_sent",
    "net.no_receiver",
    "net.packets_sent",
    "ofm.dup_requests",
    "ofm.full_scans",
    "ofm.index_selections",
    "ofm.plan_resident_hits",
    "ofm.plan_resident_misses",
    "ofm.plans_executed",
    "ofm.recoveries",
    "ofm.redo_applied",
    "ofm.tuples_scanned",
    "ofm.txn_aborts",
    "ofm.txn_commits",
    "ofm.wal_markers",
    "ofm.wal_records",
    "ofm.write_ops",
    "olap.gather_bits",
    "olap.group_by_paths",
    "olap.last_gather_bits",
    "olap.last_group_qerror_pct",
    "olap.last_shuffle_bits",
    "olap.parts",
    "olap.shuffle_bits",
    "pe.busy_ns",
    "pe.cpu_ns",
    "pe.crashes",
    "pool.handlers_executed",
    "pool.mail_bits",
    "pool.mail_dropped",
    "pool.mail_sent",
    "query.delivered_ns",
    "query.fragments_contacted",
    "query.last_gather_bits",
    "query.plan_cache.hit",
    "query.plan_cache.invalidate",
    "query.plan_cache.miss",
    "query.reply_frames",
    "query.reply_streamed",
    "query.response_ns",
    "query.tuples_gathered",
    "query.unavailable",
    "replica.failovers",
    "replica.resync_bulk_tuples",
    "replica.resync_delta_records",
    "replica.resync_rounds",
    "replica.resync_wire_bits",
    "replica.resyncs_aborted",
    "replica.resyncs_completed",
    "replica.resyncs_started",
    "replica.stale_marks",
    "serve.admitted",
    "serve.completed",
    "serve.shed",
    "sim.events_cancelled",
    "sim.events_scheduled",
    "sim.now_ns",
    "sim.tombstones_pending",
    // PRISMA_METRICS_END
};

/// Tracer span categories and literal span names (Tracer::Span/Instant).
/// Handler spans in pool/runtime.cc use the process's debug name, which is
/// dynamic and thus outside the literal-only rule.
inline constexpr const char* kRegisteredSpanNames[] = {
    // PRISMA_SPANS_BEGIN
    "2pc.decision",
    "2pc.prepare",
    "disk",
    "disk.write",
    "gdh",
    "msg",
    "net",
    "pool",
    // PRISMA_SPANS_END
};

}  // namespace prisma::obs

#endif  // PRISMA_OBS_METRIC_NAMES_H_
