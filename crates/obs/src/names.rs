//! Well-known metric and span names.
//!
//! Instrumentation across the workspace and the exporters agree on these
//! constants, so the CLI can surface `events/sec` without knowing which
//! executor ran, and typos fail to compile instead of silently creating
//! a second time series.

/// Counter: events processed by any DES executor (sequential + parallel).
pub const DES_EVENTS: &str = "des.events_processed";
/// Counter: completed sequential-executor runs.
pub const DES_RUNS_SEQ: &str = "des.runs_seq";
/// Counter: completed parallel-executor runs.
pub const DES_RUNS_PAR: &str = "des.runs_par";
/// Gauge: pending-event-set high-water mark of the last run.
pub const DES_QUEUE_HWM: &str = "des.queue_hwm";
/// Counter: synchronization windows executed by the parallel executor.
pub const DES_PAR_WINDOWS: &str = "des.par.windows";
/// Counter: per-thread windows that carried no local work — the
/// conservative engine's analog of null messages (a barrier round whose
/// only payload is the thread's lower-bound announcement). High values
/// relative to [`DES_PAR_WINDOWS`] × threads mean lookahead stalls.
pub const DES_PAR_NULL_WINDOWS: &str = "des.par.null_windows";
/// Histogram: per-worker busy time (event processing, µs) per run.
pub const DES_PAR_THREAD_BUSY_US: &str = "des.par.thread_busy_us";
/// Histogram: per-worker events processed per run.
pub const DES_PAR_THREAD_EVENTS: &str = "des.par.thread_events";
/// Counter: per-worker windows whose adaptive horizon exceeded the fixed
/// `T + lookahead` window — how often [`DES_PAR_WINDOWS`] crossings were
/// saved by widening. Zero under the `Fixed` policy.
pub const DES_PAR_WIDE_WINDOWS: &str = "des.par.wide_windows";

/// Counter: events committed so far *inside* the currently running DES
/// executor — the live sampler's progress signal. Unlike [`DES_EVENTS`]
/// (published once at finalize) this advances mid-run, flushed in chunks
/// by the sequential loop and once per window by the parallel workers,
/// and its final total equals the run's event count.
pub const DES_LIVE_EVENTS: &str = "des.live.events";
/// Gauge: pending-event-set depth sampled at the last flush/window
/// boundary of the running executor (coordinator view).
pub const DES_LIVE_QUEUE: &str = "des.live.queue_depth";
/// Gauge: the parallel engine's current safe-execution horizon (ns of
/// virtual time) at the last window boundary.
pub const DES_LIVE_HORIZON_NS: &str = "des.live.horizon_ns";
/// Counter: synchronization windows committed so far by the running
/// parallel executor (live analog of [`DES_PAR_WINDOWS`]).
pub const DES_LIVE_WINDOWS: &str = "des.live.windows";

/// Span: one sequential-executor run.
pub const SPAN_DES_RUN_SEQ: &str = "des.run.seq";
/// Span: one parallel-executor run.
pub const SPAN_DES_RUN_PAR: &str = "des.run.par";
/// Span: one parallel worker thread's lifetime inside a run.
pub const SPAN_DES_WORKER: &str = "des.par.worker";

/// Counter: PFS cluster simulations completed.
pub const PFS_RUNS: &str = "pfs.runs";
/// Counter: requests served across all OSS.
pub const PFS_OSS_REQUESTS: &str = "pfs.oss.requests";
/// Counter: requests served across all MDS.
pub const PFS_MDS_REQUESTS: &str = "pfs.mds.requests";
/// Histogram: per-OSS device busy time (µs) at finalize.
pub const PFS_OSS_BUSY_US: &str = "pfs.oss.busy_us";
/// Histogram: per-OSS mean service time per request (µs) at finalize.
pub const PFS_OSS_SERVICE_US: &str = "pfs.oss.service_us";
/// Histogram: per-OSS mean request queue wait (µs) at finalize — the
/// queue-occupancy signal next to the existing `ServerStats`.
pub const PFS_OSS_QUEUE_WAIT_US: &str = "pfs.oss.queue_wait_us";
/// Histogram: per-MDS mean service time per request (µs) at finalize.
pub const PFS_MDS_SERVICE_US: &str = "pfs.mds.service_us";
/// Gauge: peak bytes any single OST timeline bin carried (burst height).
pub const PFS_OSS_PEAK_BIN_BYTES: &str = "pfs.oss.peak_bin_bytes";
/// Span: one PFS cluster simulation run.
pub const SPAN_PFS_RUN: &str = "pfs.cluster.run";

/// Counter: object-store cluster simulations completed.
pub const OBJ_RUNS: &str = "obj.runs";
/// Counter: requests admitted across all gateways.
pub const OBJ_GATEWAY_REQUESTS: &str = "obj.gateway.requests";
/// Counter: bytes served by range GETs across all gateways.
pub const OBJ_GET_BYTES: &str = "obj.get_bytes";
/// Counter: bytes ingested by part uploads across all gateways.
pub const OBJ_PUT_BYTES: &str = "obj.put_bytes";
/// Histogram: per-gateway mean slot-queue wait (µs) at finalize — the
/// bounded-queue congestion signal for the object path.
pub const OBJ_GATEWAY_QUEUE_WAIT_US: &str = "obj.gateway.queue_wait_us";
/// Histogram: per-gateway mean protocol service time (µs) at finalize.
pub const OBJ_GATEWAY_SERVICE_US: &str = "obj.gateway.service_us";
/// Gauge: deepest slot wait queue any gateway saw.
pub const OBJ_GATEWAY_QUEUE_PEAK: &str = "obj.gateway.queue_peak";
/// Counter: requests served across all metadata shards.
pub const OBJ_SHARD_REQUESTS: &str = "obj.shard.requests";
/// Span: one object-store cluster simulation run.
pub const SPAN_OBJ_RUN: &str = "obj.cluster.run";

/// Counter: ranks launched onto clusters.
pub const IOSTACK_RANKS: &str = "iostack.ranks_launched";
/// Counter: plan actions produced by program compilation.
pub const IOSTACK_ACTIONS: &str = "iostack.actions_compiled";
/// Counter: job barriers released by coordinators.
pub const IOSTACK_BARRIERS: &str = "iostack.barriers_released";
/// Span: compiling and installing one job's rank programs.
pub const SPAN_IOSTACK_LAUNCH: &str = "iostack.launch";
/// Span: collecting one job's results.
pub const SPAN_IOSTACK_COLLECT: &str = "iostack.collect";

/// Counter: measurement trips through the evaluation pipeline.
pub const CORE_MEASURES: &str = "core.measures";
/// Span: one full measurement trip (wraps the stage spans below).
pub const SPAN_CORE_MEASURE: &str = "core.measure";
/// Span: cluster construction stage.
pub const SPAN_CORE_BUILD: &str = "core.build_cluster";
/// Span: workload lowering stage (source → per-rank programs).
pub const SPAN_CORE_LOWER: &str = "core.lower";
/// Span: simulation stage (the engine runs inside this).
pub const SPAN_CORE_SIMULATE: &str = "core.simulate";
/// Span: data-product collection stage.
pub const SPAN_CORE_COLLECT: &str = "core.collect_products";

/// Span: the CLI's outermost run interval; the exporters use its
/// duration as the run's wall-clock time.
pub const SPAN_RUN: &str = "pioeval.run";

/// Counter: bytes acknowledged to clients by the resilience tier.
pub const RESIL_ACKED_BYTES: &str = "resil.acked_bytes";
/// Counter: ACKed bytes that reached a durable home.
pub const RESIL_REPLICATED_BYTES: &str = "resil.replicated_bytes";
/// Counter: data-loss window — bytes ACKed but unreplicated at failure.
pub const RESIL_DATA_LOSS_BYTES: &str = "resil.data_loss_bytes";
/// Counter: failure events injected into runs.
pub const RESIL_FAILURES: &str = "resil.failures";
/// Counter: reads served degraded (replica redirect / erasure rebuild).
pub const RESIL_DEGRADED_READS: &str = "resil.degraded_reads";
/// Counter: requests re-driven through a peer after a failover.
pub const RESIL_REQUEUED: &str = "resil.requeued";
/// Gauge: worst failure-to-recovered span of the latest run, µs.
pub const RESIL_RECOVERY_US: &str = "resil.recovery_us";
/// Histogram: tail replication lag (absorb → durable) per run, µs.
pub const RESIL_REPL_LAG_US: &str = "resil.repl_lag_us";
