#![forbid(unsafe_code)]
//! The `pioeval` command-line tool: run workloads on the simulated
//! cluster, execute DSL-described workloads, and print the framework's
//! taxonomy and corpus — without writing any Rust.
//!
//! ```text
//! pioeval run --workload dlio --ranks 8 --ionodes 2
//! pioeval run --workload ior --target objstore --gateways 2
//! pioeval run --workload ior --metrics json --trace-out trace.json
//! pioeval dsl my_workload.pio --ranks 4
//! pioeval dsl my_campaign.pio --target objstore   # interference campaign
//! pioeval lint my_workload.pio
//! pioeval bench --out results/BENCH_obs.json
//! pioeval taxonomy
//! pioeval corpus
//! ```

use pioeval::core::{InterferenceCampaign, TargetConfig};
use pioeval::lint::{lint_config, lint_dag, lint_dsl_source, lint_objstore_config, LintReport};
use pioeval::monitor::SystemAnalysis;
use pioeval::objstore::ObjStoreConfig;
use pioeval::prelude::*;
use pioeval::types::SimTime;
use pioeval::workloads::parse_program;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
pioeval — parallel I/O evaluation framework

USAGE:
  pioeval run --workload <NAME> [OPTIONS]   simulate a bundled workload
  pioeval dsl <FILE> [OPTIONS]              simulate a DSL-described workload
  pioeval lint <FILE> [LINT OPTIONS]        static-analyse an input file
  pioeval lint --explain <PIO0xx>           explain one diagnostic code
  pioeval watch <FILE|ADDR> [WATCH OPTIONS] tail a live telemetry stream
  pioeval requests <FILE> [REQ OPTIONS]     analyze a --request-trace file
  pioeval profile <FILE> [PROFILE OPTIONS]  analyze a --profile-out file
  pioeval bench [BENCH OPTIONS]             benchmark the framework itself
  pioeval compare [--last <N>]              trend view over archived bench runs
  pioeval taxonomy                          print the evaluation-cycle taxonomy
  pioeval corpus                            print the survey corpus distribution

LINT INPUTS:
  *.pio            DSL workload program (workload/campaign blocks allowed)
  *.json           workflow DAG if a `stages` key is present, object-store
                   config if a `num_gateways` key is present, cluster
                   config otherwise

LINT OPTIONS:
  --json             diagnostics as one JSON document on stdout
  --deny-warnings    exit non-zero on any diagnostic, warnings included
  --cfg-out <FILE>   also dump the lowered per-workload control-flow
                     graph (DSL inputs only): Graphviz if FILE ends in
                     .dot, JSON otherwise

WORKLOADS:
  ior | mdtest | checkpoint | btio | dlio | analytics | workflow

OPTIONS:
  --ranks <N>          job ranks                       [default: 8]
  --clients <N>        compute clients in the cluster  [default: 64]
  --target <T>         storage backend: pfs | objstore [default: pfs]
  --ionodes <N>        burst-buffer I/O nodes (pfs)    [default: 0]
  --mds <N>            metadata servers / KV shards    [default: 1]
  --oss <N>            storage servers / storage nodes [default: 4]
  --gateways <N>       object-store gateways           [default: 2]
  --seed <N>           deterministic seed              [default: 42]
  --ack-mode <M>       burst-buffer write-ack policy:
                       local_only | local_plus_one | geographic
                       (geographic stretches replication across the
                       default two-site geo profile)
  --replication <N>    replica count for the write-back tier; on
                       --target objstore also widens object placement
  --fail <SPEC>        failure schedule, comma-separated:
                       kind:target@time scripted events or
                       mtbf:kind:mean@horizon stochastic processes,
                       kinds node | read | gateway — e.g.
                       `node:0@2.5ms` or `mtbf:node:50ms@1s`.
                       Stochastic draws are seeded from --seed, so a
                       fixed seed reproduces the exact failure times
  --metrics <MODE>     framework telemetry: human | json
                       (json: the metrics document alone on stdout)
  --trace-out <FILE>   write a *wall-clock* Chrome/Perfetto trace of the
                       framework's own telemetry spans (counters render
                       as Perfetto counter tracks)
  --request-trace <FILE>
                       record every I/O request's path through the stack
                       in *simulated time* and write per-request spans
                       with exact queue/service/device/fabric latency
                       attribution as JSONL; analyze with
                       `pioeval requests FILE`. Distinct from
                       --trace-out: that times the simulator, this times
                       the simulated requests. The two flags therefore
                       refuse to share one output path.
  --profile-out <FILE>
                       with --des-threads: record each worker's
                       per-window phase timeline (compute / mailbox /
                       barrier / horizon-stall, wall-clock) and write
                       the merged pioeval-profile/1 JSON document;
                       analyze with `pioeval profile FILE`. Sequential
                       runs have no workers to profile — the flag is
                       then noted and skipped
  --quiet              suppress the always-on telemetry summary line
  --live-out <FILE>    stream delta-encoded telemetry frames (JSONL) to
                       FILE while the run is going; tail with
                       `pioeval watch FILE`
  --live-addr <ADDR>   serve the same frames to TCP clients on ADDR
                       (e.g. 127.0.0.1:0; the bound port is printed)
  --live-interval <MS> live sampling interval in ms       [default: 250]
  --run-id <ID>        run id stamped into live frames

A DSL file may declare named `workload ... end` blocks plus a
`campaign ... end` block of `job <workload> ranks <N> [start <DUR>]`
lines; `pioeval dsl` then runs an interference campaign — each job solo
first, then all jobs concurrently on the shared target — and reports
per-job slowdown. A campaign block may also script failures with
`fail <node|read|gateway> <INDEX> at <DUR>` lines; they are injected
into the shared run only (solo baselines stay healthy), so the
slowdown column attributes contention plus failure-recovery cost.

DES ENGINE (run/dsl; results are identical across executors):
  --des-threads <N>      use the conservative parallel engine with N workers
  --des-window <P>       window policy: fixed | adaptive  [default: adaptive]
  --des-partition <P>    partitioner: rr | block | greedy [default: rr]
                         (greedy profiles per-entity load with one
                         sequential warmup trip, then bin-packs workers)

REQ OPTIONS (pioeval requests <FILE>):
  --json               machine-readable analysis document on stdout
                       (percentiles, per-layer attribution, bottleneck)
  --chrome <FILE>      also export the spans as a simulated-time
                       Chrome/Perfetto trace (one track per rank and
                       per server entity)
  --tail <PCT>         tail percentile for the attribution panel
                       [default: 99]

PROFILE OPTIONS (pioeval profile <FILE>):
  --json               machine-readable lost-parallelism attribution on
                       stdout (per-worker phase breakdown, critical
                       workers, named causes, what-if speedup ceilings)
  --chrome <FILE>      also export the phase timelines as a wall-clock
                       Chrome/Perfetto trace: one named track per
                       worker plus a window-boundary track

WATCH OPTIONS (pioeval watch <FILE|host:port>):
  --follow-until-done  exit 0 only after a `done` frame arrives (CI);
                       an idle timeout without one is an error
  --timeout <SECS>     idle timeout                       [default: 30]
  --json               no live table; print the replayed totals as one
                       JSON document at exit (round-trip checking)

BENCH OPTIONS:
  --threads <N>        worker count for the parallel rows      [default: 2]
  --repeat <K>         runs per bench, report the median       [default: 1]
                       (the PHOLD rows run interleaved, one of each per
                       round; overheads are medians of per-round ratios)
  --baseline <FILE>    regression gate: compare events/sec against FILE,
                       normalized by each side's phold_seq row so the gate
                       tracks engine overhead rather than host speed
  --tolerance <PCT>    gate failure threshold                  [default: 15]
  --out <FILE>         result file    [default: results/BENCH_obs.json]
  --timestamp <TS>     timestamp recorded in the history line  [default:
                       unix seconds]
  --history <FILE>     append {rev, timestamp, benches} to this JSONL
                       archive     [default: results/BENCH_history.jsonl]
  --seed <N>           workload + failure-schedule seed for the
                       pipeline rows (PHOLD rows are seed-independent;
                       keep the default when gating)      [default: 42]
  --profile-out <FILE> write the profiled PHOLD row's merged
                       pioeval-profile/1 JSON document to FILE

COMPARE OPTIONS (pioeval compare):
  --last <N>           trend window: the N most recent runs    [default: 8]
  --history <FILE>     archive to read  [default: results/BENCH_history.jsonl]
";

/// How `--metrics` renders the framework's own telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    /// Human-readable table on stdout.
    Human,
    /// Flat metrics JSON alone on stdout; everything else on stderr.
    Json,
}

/// `--des-partition` choices (the greedy profile is gathered later,
/// once the workload is known).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DesPartition {
    RoundRobin,
    Block,
    Greedy,
}

/// `--target` choices: which storage stack sits at the bottom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TargetKind {
    /// Parallel file system (MDS + OSS, the default).
    Pfs,
    /// S3-like object store (gateways + KV shards + storage nodes).
    ObjStore,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Options {
    ranks: u32,
    clients: usize,
    target: TargetKind,
    ionodes: usize,
    mds: usize,
    oss: usize,
    gateways: usize,
    seed: u64,
    ack_mode: Option<pioeval::resil::AckMode>,
    replication: Option<u32>,
    fail: Option<pioeval::resil::FailureSchedule>,
    metrics: Option<MetricsMode>,
    trace_out: Option<String>,
    request_trace: Option<String>,
    profile_out: Option<String>,
    quiet: bool,
    live_out: Option<String>,
    live_addr: Option<String>,
    live_interval_ms: Option<u64>,
    run_id: Option<String>,
    des_threads: Option<usize>,
    des_window: Option<pioeval::des::WindowPolicy>,
    des_partition: Option<DesPartition>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            ranks: 8,
            clients: 64,
            target: TargetKind::Pfs,
            ionodes: 0,
            mds: 1,
            oss: 4,
            gateways: 2,
            seed: 42,
            ack_mode: None,
            replication: None,
            fail: None,
            metrics: None,
            trace_out: None,
            request_trace: None,
            profile_out: None,
            quiet: false,
            live_out: None,
            live_addr: None,
            live_interval_ms: None,
            run_id: None,
            des_threads: None,
            des_window: None,
            des_partition: None,
        }
    }
}

impl Options {
    /// True when stdout is reserved for the metrics JSON document.
    fn machine_stdout(&self) -> bool {
        self.metrics == Some(MetricsMode::Json)
    }
}

/// Flags that take no value; parsed as `key -> "true"`.
const BOOL_FLAGS: &[&str] = &["quiet", "json", "follow-until-done", "deny-warnings"];

/// Split args into positional values and `--key value` flags (boolean
/// flags from [`BOOL_FLAGS`] consume no value).
fn parse_flags(args: &[String]) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                flags.insert(key.to_string(), value.clone());
                i += 2;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    Ok((positional, flags))
}

fn options_from(flags: &HashMap<String, String>) -> Result<Options, String> {
    let mut opts = Options::default();
    let parse = |flags: &HashMap<String, String>, key: &str| -> Result<Option<u64>, String> {
        flags
            .get(key)
            .map(|v| v.parse::<u64>().map_err(|_| format!("bad --{key}: {v}")))
            .transpose()
    };
    if let Some(v) = parse(flags, "ranks")? {
        opts.ranks = v as u32;
    }
    if let Some(v) = parse(flags, "clients")? {
        opts.clients = v as usize;
    }
    if let Some(v) = parse(flags, "ionodes")? {
        opts.ionodes = v as usize;
    }
    if let Some(v) = parse(flags, "mds")? {
        opts.mds = v as usize;
    }
    if let Some(v) = parse(flags, "oss")? {
        opts.oss = v as usize;
    }
    if let Some(v) = parse(flags, "gateways")? {
        opts.gateways = v as usize;
    }
    if let Some(v) = parse(flags, "seed")? {
        opts.seed = v;
    }
    if let Some(v) = flags.get("ack-mode") {
        opts.ack_mode = Some(pioeval::resil::AckMode::parse(v).ok_or_else(|| {
            format!("bad --ack-mode: {v} (expected local_only|local_plus_one|geographic)")
        })?);
    }
    if let Some(v) = flags.get("replication") {
        let n: u32 = v
            .parse()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| format!("bad --replication: {v} (expected a positive integer)"))?;
        opts.replication = Some(n);
    }
    if let Some(v) = flags.get("fail") {
        opts.fail = Some(
            pioeval::resil::FailureSchedule::parse_spec(v)
                .map_err(|e| format!("bad --fail: {e}"))?,
        );
    }
    if let Some(v) = flags.get("target") {
        opts.target = match v.as_str() {
            "pfs" => TargetKind::Pfs,
            "objstore" | "obj" => TargetKind::ObjStore,
            other => return Err(format!("bad --target: {other} (expected pfs|objstore)")),
        };
    }
    if let Some(v) = flags.get("metrics") {
        opts.metrics = Some(match v.as_str() {
            "human" => MetricsMode::Human,
            "json" => MetricsMode::Json,
            other => return Err(format!("bad --metrics: {other} (expected human|json)")),
        });
    }
    opts.trace_out = flags.get("trace-out").cloned();
    opts.request_trace = flags.get("request-trace").cloned();
    opts.profile_out = flags.get("profile-out").cloned();
    if let (Some(a), Some(b)) = (&opts.trace_out, &opts.request_trace) {
        if a == b {
            return Err(format!(
                "--trace-out and --request-trace both point at `{a}`: \
                 they write different documents (wall-clock telemetry \
                 trace vs. simulated-time request trace) — give each \
                 its own path"
            ));
        }
    }
    if let Some(p) = &opts.profile_out {
        if opts.trace_out.as_deref() == Some(p) || opts.request_trace.as_deref() == Some(p) {
            return Err(format!(
                "--profile-out shares `{p}` with another trace flag: the \
                 execution profile is its own document — give it its own \
                 path"
            ));
        }
    }
    opts.quiet = flags.contains_key("quiet");
    opts.live_out = flags.get("live-out").cloned();
    opts.live_addr = flags.get("live-addr").cloned();
    if let Some(v) = parse(flags, "live-interval")? {
        if v == 0 {
            return Err("--live-interval must be > 0".into());
        }
        opts.live_interval_ms = Some(v);
    }
    opts.run_id = flags.get("run-id").cloned();
    if let Some(v) = parse(flags, "des-threads")? {
        if v == 0 {
            return Err("--des-threads must be > 0".into());
        }
        opts.des_threads = Some(v as usize);
    }
    if let Some(v) = flags.get("des-window") {
        opts.des_window = Some(match v.as_str() {
            "fixed" => pioeval::des::WindowPolicy::Fixed,
            "adaptive" => pioeval::des::WindowPolicy::Adaptive,
            other => {
                return Err(format!(
                    "bad --des-window: {other} (expected fixed|adaptive)"
                ))
            }
        });
    }
    if let Some(v) = flags.get("des-partition") {
        opts.des_partition = Some(match v.as_str() {
            "rr" | "round-robin" => DesPartition::RoundRobin,
            "block" => DesPartition::Block,
            "greedy" => DesPartition::Greedy,
            other => {
                return Err(format!(
                    "bad --des-partition: {other} (expected rr|block|greedy)"
                ))
            }
        });
    }
    for key in flags.keys() {
        if ![
            "ranks",
            "clients",
            "target",
            "ionodes",
            "mds",
            "oss",
            "gateways",
            "seed",
            "ack-mode",
            "replication",
            "fail",
            "workload",
            "metrics",
            "trace-out",
            "request-trace",
            "profile-out",
            "quiet",
            "live-out",
            "live-addr",
            "live-interval",
            "run-id",
            "des-threads",
            "des-window",
            "des-partition",
        ]
        .contains(&key.as_str())
        {
            return Err(format!("unknown option --{key}"));
        }
    }
    if opts.ranks == 0 {
        return Err("--ranks must be > 0".into());
    }
    Ok(opts)
}

/// Build the executor choice from the `--des-*` flags. A greedy
/// partition runs one sequential warmup trip of the same workload to
/// profile per-entity load before the measured run.
fn exec_for(
    opts: &Options,
    target: &TargetConfig,
    source: &WorkloadSource,
) -> Result<pioeval::des::ExecMode, String> {
    use pioeval::des::{ExecMode, ParallelConfig, Partitioner};
    if opts.des_threads.is_none() && opts.des_window.is_none() && opts.des_partition.is_none() {
        return Ok(ExecMode::Sequential);
    }
    let mut cfg = ParallelConfig::with_threads(opts.des_threads.unwrap_or(2));
    if let Some(window) = opts.des_window {
        cfg.window = window;
    }
    match opts.des_partition {
        Some(DesPartition::Block) => cfg.partitioner = Partitioner::Block,
        Some(DesPartition::Greedy) => {
            let TargetConfig::Pfs(cluster) = target else {
                return Err("--des-partition greedy profiles the PFS entity layout; \
                     use rr or block with --target objstore"
                    .into());
            };
            let counts = pioeval::core::profile_entity_counts(
                cluster,
                source,
                opts.ranks,
                StackConfig::default(),
                opts.seed,
            )
            .map_err(|e| e.to_string())?;
            cfg.partitioner = Partitioner::greedy_from_counts(&counts);
        }
        Some(DesPartition::RoundRobin) | None => {}
    }
    Ok(ExecMode::Parallel(cfg))
}

fn cluster_from(opts: &Options) -> ClusterConfig {
    ClusterConfig {
        num_clients: opts.clients.max(opts.ranks as usize),
        num_ionodes: opts.ionodes,
        num_oss: opts.oss.max(1),
        resil: resil_from(opts),
        ..ClusterConfig::default()
    }
    .with_mds(opts.mds.max(1))
}

/// Seed stream for failure schedules, split off `--seed` so the
/// injector's RNG never aliases the workload generators'.
const RESIL_SEED_STREAM: u64 = 0x5EED_FA11;

/// The resilience configuration `--ack-mode`/`--replication`/`--fail`
/// describe, or `None` when none of them was given (the target then
/// runs without the resilience tier, exactly as before the flags
/// existed).
fn resil_from(opts: &Options) -> Option<pioeval::resil::ResilConfig> {
    if opts.ack_mode.is_none() && opts.replication.is_none() && opts.fail.is_none() {
        return None;
    }
    let mut cfg = pioeval::resil::ResilConfig::default();
    if let Some(mode) = opts.ack_mode {
        cfg.ack_mode = mode;
    }
    if let Some(n) = opts.replication {
        cfg.replication = n;
    }
    if let Some(failures) = &opts.fail {
        cfg.failures = failures.clone();
    }
    cfg.failures.seed = pioeval::types::split_seed(opts.seed, RESIL_SEED_STREAM);
    Some(cfg)
}

/// Map the CLI knobs onto whichever bottom layer `--target` picked.
/// The shared flags keep one meaning across both: `--oss` sizes the
/// storage tier, `--mds` the metadata tier.
fn target_from(opts: &Options) -> TargetConfig {
    match opts.target {
        TargetKind::Pfs => TargetConfig::Pfs(cluster_from(opts)),
        TargetKind::ObjStore => {
            let mut cfg = ObjStoreConfig {
                num_clients: opts.clients.max(opts.ranks as usize),
                num_gateways: opts.gateways.max(1),
                num_shards: opts.mds.max(1),
                num_storage: opts.oss.max(1),
                resil: resil_from(opts),
                ..ObjStoreConfig::default()
            };
            // On the object path durability comes from placement width,
            // so --replication widens the default placement too.
            if let Some(n) = opts.replication {
                cfg.placement = pioeval::objstore::Placement::Replicate(n);
            }
            TargetConfig::ObjStore(cfg)
        }
    }
}

/// Pre-flight lint for whichever target config will be built.
fn preflight_target(target: &TargetConfig) -> Result<(), String> {
    match target {
        TargetConfig::Pfs(c) => preflight("cluster", &lint_config(c, engine_lookahead())),
        TargetConfig::ObjStore(c) => {
            preflight("objstore", &lint_objstore_config(c, engine_lookahead()))
        }
    }
}

/// Helper so the CLI reads cleanly (ClusterConfig has many fields).
trait WithMds {
    fn with_mds(self, n: usize) -> Self;
}
impl WithMds for ClusterConfig {
    fn with_mds(mut self, n: usize) -> Self {
        self.num_mds = n;
        self
    }
}

fn workload_by_name(name: &str) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ior" => Box::new(IorLike::default()),
        "mdtest" => Box::new(MdtestLike::default()),
        "checkpoint" => Box::new(CheckpointLike::default()),
        "btio" => Box::new(BtIoLike::default()),
        "dlio" => Box::new(DlioLike::default()),
        "analytics" => Box::new(AnalyticsLike::default()),
        "workflow" => Box::new(WorkflowDag::three_stage_default(
            pioeval::types::bytes::kib(256),
        )),
        other => return Err(format!("unknown workload `{other}` (see --help)")),
    })
}

fn render_report(report: &pioeval::core::MeasurementReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let makespan = report
        .makespan()
        .expect("job did not finish — report a bug");
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["makespan".to_string(), format!("{makespan}")]);
    table.row(vec![
        "write throughput".to_string(),
        format!("{:.1} MiB/s", report.job.write_throughput_mib_s()),
    ]);
    table.row(vec![
        "read throughput".to_string(),
        format!("{:.1} MiB/s", report.job.read_throughput_mib_s()),
    ]);
    table.row(vec![
        "bytes written".to_string(),
        format!(
            "{}",
            pioeval::types::ByteSize(report.profile.bytes_written())
        ),
    ]);
    table.row(vec![
        "bytes read".to_string(),
        format!("{}", pioeval::types::ByteSize(report.profile.bytes_read())),
    ]);
    table.row(vec!["metadata ops".to_string(), report.mds_ops.to_string()]);
    table.row(vec![
        "meta per data op".to_string(),
        format!("{:.2}", report.profile.meta_per_data_op()),
    ]);
    table.row(vec![
        "files touched".to_string(),
        report.profile.num_files().to_string(),
    ]);
    if !report.gateways.is_empty() {
        // Object-store path: gateway-side view of the same run.
        let secs = makespan.as_secs_f64().max(1e-9);
        let get: u64 = report.gateways.iter().map(|g| g.get_bytes).sum();
        let put: u64 = report.gateways.iter().map(|g| g.put_bytes).sum();
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        table.row(vec![
            "obj GET throughput".to_string(),
            format!("{:.1} MiB/s", mib(get) / secs),
        ]);
        table.row(vec![
            "obj PUT throughput".to_string(),
            format!("{:.1} MiB/s", mib(put) / secs),
        ]);
        let waits: Vec<String> = report
            .gateways
            .iter()
            .map(|g| format!("{}", g.mean_queue_wait()))
            .collect();
        table.row(vec!["gateway queue-wait".to_string(), waits.join(" | ")]);
        let pcts: Vec<String> = report
            .gateways
            .iter()
            .map(|g| format!("{}/{}/{}", g.queue_p50, g.queue_p99, g.queue_p999))
            .collect();
        table.row(vec![
            "gateway queue p50/p99/p999".to_string(),
            pcts.join(" | "),
        ]);
        let peak = report
            .gateways
            .iter()
            .map(|g| g.peak_queue_depth)
            .max()
            .unwrap_or(0);
        table.row(vec!["gateway peak queue".to_string(), peak.to_string()]);
    }
    if let Some(res) = &report.resilience {
        let bytes = |b: u64| format!("{}", pioeval::types::ByteSize(b));
        let verdict = pioeval::monitor::assess_durability(
            res.acked_bytes,
            res.replicated_bytes,
            res.data_loss_bytes,
            res.failures_injected,
        );
        table.row(vec![
            "ack policy".to_string(),
            res.ack_mode.as_str().to_string(),
        ]);
        table.row(vec![
            "failures injected".to_string(),
            res.failures_injected.to_string(),
        ]);
        table.row(vec!["acked bytes".to_string(), bytes(res.acked_bytes)]);
        table.row(vec![
            "durable bytes".to_string(),
            bytes(res.replicated_bytes),
        ]);
        table.row(vec![
            "data-loss window".to_string(),
            bytes(res.data_loss_bytes),
        ]);
        table.row(vec![
            "recovery time".to_string(),
            format!("{}", res.recovery),
        ]);
        table.row(vec![
            "repl lag p50/p99".to_string(),
            format!("{}/{}", res.repl_lag_p50, res.repl_lag_p99),
        ]);
        table.row(vec![
            "degraded reads".to_string(),
            format!(
                "{} ({:.2}x amplification)",
                res.degraded_reads, res.degraded_read_amplification
            ),
        ]);
        table.row(vec![
            "requests re-drained".to_string(),
            res.requeued.to_string(),
        ]);
        table.row(vec!["durability".to_string(), verdict.name().to_string()]);
    }
    out.push_str(&table.render());

    let timelines: Vec<_> = report
        .servers
        .iter()
        .flat_map(|s| s.timelines.iter().cloned())
        .collect();
    let analysis = SystemAnalysis::from_timelines(&timelines);
    let series: Vec<f64> = analysis
        .windows
        .iter()
        .map(|w| (w.read + w.written) as f64)
        .collect();
    let _ = writeln!(
        out,
        "\nserver traffic: {}",
        pioeval::core::sparkline(&series)
    );
    let _ = writeln!(
        out,
        "burstiness {:.2} | read fraction {:.2} | active windows {:.0}%{}",
        analysis.burstiness,
        analysis.read_fraction(),
        analysis.active_fraction * 100.0,
        analysis
            .dominant_period()
            .map(|p| format!(" | dominant period {p} windows"))
            .unwrap_or_default()
    );
    out
}

/// Route human-facing chatter: stdout normally, stderr when stdout is
/// reserved for a machine-readable document (`--metrics json`), matching
/// `lint --json`.
fn say(opts: &Options, text: &str) {
    if opts.machine_stdout() {
        eprint!("{text}");
    } else {
        print!("{text}");
    }
}

/// Start the live frame exporter when `--live-out`/`--live-addr` ask for
/// one, after pre-flight linting every output path the run will write
/// (PIO060/061 — warnings, so a suspect path is reported but never
/// aborts). Call before the measured work; [`emit_telemetry`] finalizes.
fn install_live(opts: &Options, default_run_id: &str) -> Result<(), String> {
    let mut outputs: Vec<(&str, &String)> = Vec::new();
    if let Some(p) = &opts.trace_out {
        outputs.push(("--trace-out", p));
    }
    if let Some(p) = &opts.request_trace {
        outputs.push(("--request-trace", p));
    }
    if let Some(p) = &opts.live_out {
        outputs.push(("--live-out", p));
    }
    for (flag, path) in outputs {
        preflight(flag, &pioeval::lint::lint_output_path(flag, path))?;
    }
    if opts.live_out.is_none() && opts.live_addr.is_none() {
        return Ok(());
    }
    let cfg = pioeval::obs::LiveConfig {
        interval: opts.live_interval_ms.map(std::time::Duration::from_millis),
        file: opts.live_out.clone().map(std::path::PathBuf::from),
        addr: opts.live_addr.clone(),
        run_id: opts
            .run_id
            .clone()
            .unwrap_or_else(|| default_run_id.to_string()),
    };
    let exporter = pioeval::obs::LiveExporter::start(pioeval::obs::global(), cfg)
        .map_err(|e| format!("cannot start live exporter: {e}"))?;
    if let Some(addr) = exporter.local_addr() {
        say(opts, &format!("live: serving frames on {addr}\n"));
    }
    if let Some(path) = &opts.live_out {
        say(opts, &format!("live: streaming frames to {path}\n"));
    }
    pioeval::obs::live::install(exporter);
    Ok(())
}

/// Post-run telemetry output shared by `run` and `dsl`: finalize the
/// live stream first (its `done` frame and the post-mortem documents
/// must describe the same totals), then the one-line summary (unless
/// `--quiet`), the optional `--metrics` document, and the optional
/// `--trace-out` Chrome trace file — with live counter time-series
/// rendered as Perfetto counter tracks when a sampler ran.
fn emit_telemetry(opts: &Options) -> Result<(), String> {
    let live = pioeval::obs::live::finish();
    let reg = pioeval::obs::global();
    if !opts.quiet {
        say(opts, &format!("\n{}\n", summary_line(reg)));
        if let Some(report) = &live {
            say(opts, &format!("live: {} frames emitted\n", report.frames));
        }
    }
    match opts.metrics {
        Some(MetricsMode::Json) => println!("{}", metrics_json(reg)),
        Some(MetricsMode::Human) => print!("\n{}", human_summary(reg)),
        None => {}
    }
    if let Some(path) = &opts.trace_out {
        let series: &[(String, Vec<(u64, u64)>)] =
            live.as_ref().map(|r| r.series.as_slice()).unwrap_or(&[]);
        let trace = pioeval::obs::export::chrome_trace_with_counters(reg, series);
        std::fs::write(path, trace).map_err(|e| format!("cannot write trace to {path}: {e}"))?;
        say(opts, &format!("trace written to {path}\n"));
    }
    Ok(())
}

/// Write the simulated-time request trace (`--request-trace`) and print
/// a one-line tail/attribution digest under the report, so a traced run
/// is useful even before `pioeval requests` opens the file.
fn emit_request_trace(
    opts: &Options,
    report: &pioeval::core::MeasurementReport,
) -> Result<(), String> {
    let (Some(path), Some(asm)) = (&opts.request_trace, &report.requests) else {
        return Ok(());
    };
    let text = pioeval::reqtrace::write_jsonl(&asm.requests, asm.incomplete);
    std::fs::write(path, text).map_err(|e| format!("cannot write request trace to {path}: {e}"))?;
    let summary = pioeval::reqtrace::summarize(&asm.requests, asm.incomplete);
    let shares = summary.shares();
    let diag = pioeval::monitor::classify_bottleneck(shares);
    say(
        opts,
        &format!(
            "request trace: {} requests to {path}\n\
             request p99 {} | queue {:.0}% service {:.0}% device {:.0}% \
             fabric {:.0}% | {}\n",
            asm.requests.len(),
            summary.latency.p99,
            shares[0] * 100.0,
            shares[1] * 100.0,
            shares[2] * 100.0,
            shares[3] * 100.0,
            diag.name(),
        ),
    );
    Ok(())
}

/// Write the per-worker execution profile (`--profile-out`) and print a
/// one-line attribution digest under the report, so a profiled run is
/// useful even before `pioeval profile` opens the file.
fn emit_profile(opts: &Options, report: &pioeval::core::MeasurementReport) -> Result<(), String> {
    let Some(path) = &opts.profile_out else {
        return Ok(());
    };
    let Some(prof) = &report.exec_profile else {
        eprintln!(
            "note: --profile-out skipped: the run executed sequentially \
             (profiling needs --des-threads >= 2)"
        );
        return Ok(());
    };
    std::fs::write(path, prof.to_json())
        .map_err(|e| format!("cannot write execution profile to {path}: {e}"))?;
    let a = pioeval::monitor::analyze_profile(prof);
    let top = a
        .causes
        .first()
        .map(|c| format!("{} ({:.0}%)", c.name, 100.0 * c.share))
        .unwrap_or_else(|| "none".to_string());
    say(
        opts,
        &format!(
            "execution profile: {} workers, {} windows to {path}\n\
             parallel efficiency {:.0}% | {} | top cause: {top}\n",
            a.threads,
            a.windows,
            100.0 * a.parallel_efficiency,
            a.classification.name(),
        ),
    );
    Ok(())
}

/// Lookahead the measurement engine runs under — the lint target.
fn engine_lookahead() -> pioeval::types::SimDuration {
    pioeval::des::SimConfig::default().lookahead
}

/// Mandatory pre-flight: print any findings, abort on error-severity ones.
fn preflight(label: &str, report: &LintReport) -> Result<(), String> {
    if !report.diagnostics.is_empty() {
        eprint!("{}", report.render_human(label));
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "pre-flight lint found {} error(s) in {label}; \
             run `pioeval lint` for details",
            report.error_count()
        ))
    }
}

fn cmd_lint(args: &[String]) -> Result<bool, String> {
    let mut args = args.to_vec();
    let json_out = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let (positional, flags) = parse_flags(&args)?;
    if let Some(code_str) = flags.get("explain") {
        let code = pioeval::lint::Code::parse(code_str)
            .ok_or_else(|| format!("unknown diagnostic code `{code_str}`"))?;
        println!("{} — {}\n\n{}", code.as_str(), code.title(), code.explain());
        return Ok(true);
    }
    let deny_warnings = flags.contains_key("deny-warnings");
    let cfg_out = flags.get("cfg-out").cloned();
    for key in flags.keys() {
        if !matches!(key.as_str(), "deny-warnings" | "cfg-out") {
            return Err(format!("unknown option --{key}"));
        }
    }
    let path = positional
        .first()
        .ok_or("lint requires a <FILE> argument")?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    if let Some(out) = &cfg_out {
        if path.ends_with(".json") {
            return Err("--cfg-out requires a DSL workload input (.pio)".to_string());
        }
        let program = pioeval::workloads::parse_program_ast(&source, 0)
            .map_err(|e| format!("{path}: {e}"))?;
        let pcfg = pioeval::lint::lower_program(&program);
        let text = if out.ends_with(".dot") {
            pcfg.to_dot()
        } else {
            pcfg.to_json()
        };
        std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    }

    let report = if path.ends_with(".json") {
        let value =
            serde_json::parse(&source).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
        if value.get("stages").is_some() {
            let dag: WorkflowDag = serde_json::from_str(&source)
                .map_err(|e| format!("{path}: not a workflow DAG: {e}"))?;
            lint_dag(&dag)
        } else if value.get("num_gateways").is_some() {
            let cfg: ObjStoreConfig = serde_json::from_str(&source)
                .map_err(|e| format!("{path}: not an object-store config: {e}"))?;
            lint_objstore_config(&cfg, engine_lookahead())
        } else {
            let cfg: ClusterConfig = serde_json::from_str(&source)
                .map_err(|e| format!("{path}: not a cluster config: {e}"))?;
            lint_config(&cfg, engine_lookahead())
        }
    } else {
        lint_dsl_source(&source)
    };

    if json_out {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_human(path));
        if report.diagnostics.is_empty() {
            println!("{path}: clean");
        }
    }
    if deny_warnings {
        Ok(report.diagnostics.is_empty())
    } else {
        Ok(report.is_clean())
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (_, flags) = parse_flags(args)?;
    let name = flags
        .get("workload")
        .ok_or("run requires --workload <NAME>")?;
    let opts = options_from(&flags)?;
    let workload = workload_by_name(name)?;
    let target = target_from(&opts);
    preflight_target(&target)?;
    let tier = match &target {
        TargetConfig::Pfs(_) => format!(
            "{} I/O nodes, {} MDS, {} OSS",
            opts.ionodes, opts.mds, opts.oss
        ),
        TargetConfig::ObjStore(c) => format!(
            "{} gateways, {} shards, {} storage nodes",
            c.num_gateways, c.num_shards, c.num_storage
        ),
    };
    say(
        &opts,
        &format!(
            "running `{name}` with {} ranks on {} clients via {} ({tier}) ...\n\n",
            opts.ranks,
            opts.clients,
            target.name(),
        ),
    );
    let source = WorkloadSource::Synthetic(workload);
    let exec = exec_for(&opts, &target, &source)?;
    install_live(&opts, &format!("run-{name}-{}", opts.seed))?;
    let report = {
        let _run = pioeval::obs::span(pioeval::obs::names::SPAN_RUN, "cli");
        pioeval::core::measure_target_instrumented(
            &target,
            &source,
            opts.ranks,
            StackConfig::default(),
            opts.seed,
            &exec,
            opts.request_trace.is_some(),
            opts.profile_out.is_some(),
        )
        .map_err(|e| e.to_string())?
    };
    say(&opts, &render_report(&report));
    emit_request_trace(&opts, &report)?;
    emit_profile(&opts, &report)?;
    emit_telemetry(&opts)
}

fn cmd_dsl(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(args)?;
    let path = positional.first().ok_or("dsl requires a <FILE> argument")?;
    let opts = options_from(&flags)?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = parse_program(&source, 100_000).map_err(|e| e.to_string())?;
    let mut target = target_from(&opts);
    if let Some(campaign_decl) = &program.campaign {
        apply_campaign_failures(&mut target, campaign_decl, opts.seed)?;
    }
    preflight(path, &lint_dsl_source(&source))?;
    preflight_target(&target)?;

    if let Some(campaign_decl) = &program.campaign {
        return run_campaign(&opts, path, &program, campaign_decl, target);
    }

    // Plain program: run the main body, or the single workload block if
    // the file declares exactly one and nothing else.
    let workload = match (&program.main, program.workloads.as_slice()) {
        (Some(w), _) => w.clone(),
        (None, [(_, w)]) => w.clone(),
        (None, []) => return Err(format!("{path}: empty program")),
        (None, _) => {
            return Err(format!(
                "{path}: several workload blocks but no campaign and no main \
                 statements — add a `campaign ... end` block to run them"
            ))
        }
    };
    say(
        &opts,
        &format!(
            "running DSL workload `{path}` with {} ranks via {} ...\n\n",
            opts.ranks,
            target.name(),
        ),
    );
    let source = WorkloadSource::Synthetic(Box::new(workload));
    let exec = exec_for(&opts, &target, &source)?;
    install_live(&opts, &format!("dsl-{path}-{}", opts.seed))?;
    let report = {
        let _run = pioeval::obs::span(pioeval::obs::names::SPAN_RUN, "cli");
        pioeval::core::measure_target_instrumented(
            &target,
            &source,
            opts.ranks,
            StackConfig::default(),
            opts.seed,
            &exec,
            opts.request_trace.is_some(),
            opts.profile_out.is_some(),
        )
        .map_err(|e| e.to_string())?
    };
    say(&opts, &render_report(&report));
    emit_request_trace(&opts, &report)?;
    emit_profile(&opts, &report)?;
    emit_telemetry(&opts)
}

/// Fold a campaign's scripted `fail` lines into the target's
/// resilience configuration (creating one if the CLI flags didn't),
/// seeded from `--seed` so reruns inject identical schedules. The
/// campaign strips these for its solo baselines, so only the shared
/// run sees them.
fn apply_campaign_failures(
    target: &mut TargetConfig,
    decl: &pioeval::workloads::CampaignDecl,
    seed: u64,
) -> Result<(), String> {
    if decl.failures.is_empty() {
        return Ok(());
    }
    let resil = match target {
        TargetConfig::Pfs(c) => c.resil.get_or_insert_with(Default::default),
        TargetConfig::ObjStore(c) => c.resil.get_or_insert_with(Default::default),
    };
    for f in &decl.failures {
        let kind = pioeval::resil::FailureKind::parse(&f.kind)
            .ok_or_else(|| format!("line {}: unknown failure kind `{}`", f.line, f.kind))?;
        resil.failures.scripted.push(pioeval::resil::FailureEvent {
            kind,
            target: f.target,
            at: f.at,
        });
    }
    resil.failures.seed = pioeval::types::split_seed(seed, RESIL_SEED_STREAM);
    Ok(())
}

/// Run a DSL-declared interference campaign: each job solo on a fresh
/// target first (the baseline), then all jobs concurrently on the
/// shared target, reporting per-job slowdown.
fn run_campaign(
    opts: &Options,
    path: &str,
    program: &pioeval::workloads::DslProgram,
    decl: &pioeval::workloads::CampaignDecl,
    target: TargetConfig,
) -> Result<(), String> {
    if opts.request_trace.is_some() {
        return Err(
            "--request-trace is not supported for campaigns; trace one job \
             at a time with `pioeval dsl`/`pioeval run` instead"
                .into(),
        );
    }
    say(
        opts,
        &format!(
            "running interference campaign `{path}`: {} jobs on a shared {} target ...\n\n",
            decl.jobs.len(),
            target.name(),
        ),
    );
    let mut campaign = InterferenceCampaign::new(target, opts.seed);
    for job in &decl.jobs {
        let workload = program
            .workload(&job.workload)
            .ok_or_else(|| format!("campaign job names unknown workload `{}`", job.workload))?;
        campaign.submit(Submission::new(
            WorkloadSource::Synthetic(Box::new(workload.clone())),
            job.ranks,
            SimTime::ZERO + job.start,
        ));
    }
    install_live(opts, &format!("campaign-{path}-{}", opts.seed))?;
    let report = {
        let _run = pioeval::obs::span(pioeval::obs::names::SPAN_RUN, "cli");
        campaign.run().map_err(|e| e.to_string())?
    };
    let mut table = Table::new(vec!["job", "ranks", "solo", "shared", "slowdown"]);
    let slowdowns = report.slowdowns();
    for (i, job) in decl.jobs.iter().enumerate() {
        table.row(vec![
            job.workload.clone(),
            job.ranks.to_string(),
            format!("{}", report.solo[i]),
            format!("{}", report.shared[i]),
            format!("{:.2}x", slowdowns[i]),
        ]);
    }
    say(opts, &table.render());
    say(
        opts,
        &format!("max slowdown {:.2}x\n", report.max_slowdown()),
    );
    if !report.gateways.is_empty() {
        let waits: Vec<String> = report
            .gateways
            .iter()
            .map(|g| format!("{}", g.mean_queue_wait()))
            .collect();
        say(
            opts,
            &format!("gateway queue-wait (shared run): {}\n", waits.join(" | ")),
        );
    }
    if let Some(res) = &report.resilience {
        let verdict = pioeval::monitor::assess_durability(
            res.acked_bytes,
            res.replicated_bytes,
            res.data_loss_bytes,
            res.failures_injected,
        );
        say(
            opts,
            &format!(
                "resilience (shared run): {} acks, {} failures, \
                 data-loss window {}, recovery {}, durability {}\n",
                res.ack_mode.as_str(),
                res.failures_injected,
                pioeval::types::ByteSize(res.data_loss_bytes),
                res.recovery,
                verdict.name(),
            ),
        );
    }
    emit_telemetry(opts)
}

/// One bench row: name, event count, median wall-clock ms, events/sec.
type BenchRow = (String, u64, f64, f64);

/// One timed bench body: runs the workload once, returns its event count.
type BenchBody<'a> = Box<dyn FnMut() -> Result<u64, String> + 'a>;

/// Run `repeat` rounds of every body, one of each per round, and return
/// each body's event count and per-round walls. Bodies timed in the same
/// round see the same host conditions, so the ratio of two neighbouring
/// bodies' walls within a round is a paired sample. Odd rounds run the
/// bodies in reverse order, so no body always runs right after the same
/// neighbour. Event counts must agree across rounds — the engine is
/// deterministic, so a mismatch is a bug worth failing loudly on.
fn bench_interleaved(
    repeat: usize,
    bodies: &mut [BenchBody<'_>],
) -> Result<Vec<(u64, Vec<std::time::Duration>)>, String> {
    let mut series: Vec<(Option<u64>, Vec<std::time::Duration>)> =
        bodies.iter().map(|_| (None, Vec::new())).collect();
    for round in 0..repeat {
        let mut order: Vec<usize> = (0..bodies.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let (events, walls) = &mut series[i];
            let t0 = std::time::Instant::now();
            let n = bodies[i]()?;
            walls.push(t0.elapsed());
            match *events {
                Some(prev) if prev != n => {
                    return Err(format!("nondeterministic bench: {prev} vs {n} events"))
                }
                _ => *events = Some(n),
            }
        }
    }
    Ok(series
        .into_iter()
        .map(|(events, walls)| (events.unwrap_or(0), walls))
        .collect())
}

/// Median (upper middle for an even count) of a non-empty sample.
fn median<T: PartialOrd + Copy>(xs: &[T]) -> T {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted[sorted.len() / 2]
}

/// Run `body` `repeat` times and return (events, median wall).
fn bench_median<'a>(
    repeat: usize,
    body: impl FnMut() -> Result<u64, String> + 'a,
) -> Result<(u64, std::time::Duration), String> {
    let (events, walls) =
        bench_interleaved(repeat, &mut [Box::new(body) as BenchBody<'a>])?.remove(0);
    Ok((events, median(&walls)))
}

/// Numeric JSON value as f64 (the shimmed parser splits number kinds).
fn json_f64(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::F64(f) => Some(*f),
        serde_json::Value::U64(u) => Some(*u as f64),
        serde_json::Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// Numeric JSON value as u64 (frames carry only non-negative integers).
fn json_u64(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::U64(u) => Some(*u),
        serde_json::Value::I64(i) if *i >= 0 => Some(*i as u64),
        serde_json::Value::F64(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

/// Regression gate: compare this run's events/sec against a committed
/// baseline file. Both sides are normalized by their own `phold_seq`
/// row, so the comparison tracks *engine overhead relative to the
/// sequential executor* and survives hosts of different absolute speed
/// (CI runners vs. the machine that committed the baseline). Rows
/// missing from the baseline are reported but never fail the gate.
fn bench_gate(rows: &[BenchRow], baseline_path: &str, tolerance_pct: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let doc =
        serde_json::parse(&text).map_err(|e| format!("{baseline_path}: not valid JSON: {e}"))?;
    let mut base: Vec<(String, f64)> = Vec::new();
    if let Some(serde_json::Value::Seq(items)) = doc.get("benches") {
        for item in items {
            if let (Some(serde_json::Value::Str(name)), Some(eps)) = (
                item.get("name"),
                item.get("events_per_sec").and_then(json_f64),
            ) {
                base.push((name.clone(), eps));
            }
        }
    }
    let eps_of =
        |set: &[(String, f64)], name: &str| set.iter().find(|(n, _)| n == name).map(|&(_, e)| e);
    let cur: Vec<(String, f64)> = rows.iter().map(|r| (r.0.clone(), r.3)).collect();
    let (cur_seq, base_seq) = match (eps_of(&cur, "phold_seq"), eps_of(&base, "phold_seq")) {
        (Some(c), Some(b)) if c > 0.0 && b > 0.0 => (c, b),
        _ => {
            return Err(format!(
                "{baseline_path}: no usable phold_seq row to normalize by"
            ))
        }
    };
    let host_scale = cur_seq / base_seq;
    println!("\ngate: host speed scale {host_scale:.3} (phold_seq now/baseline)");
    let mut failures = Vec::new();
    for (name, eps) in &cur {
        if name == "phold_seq" {
            continue; // the normalizer itself
        }
        let Some(base_eps) = eps_of(&base, name) else {
            println!("gate: {name:<22} not in baseline — skipped");
            continue;
        };
        let expected = base_eps * host_scale;
        let delta_pct = (eps / expected - 1.0) * 100.0;
        let verdict = if delta_pct < -tolerance_pct {
            "FAIL"
        } else {
            "ok"
        };
        println!(
            "gate: {name:<22} {eps:>12.0} ev/s vs expected {expected:>12.0} \
             ({delta_pct:>+6.1}%) {verdict}"
        );
        if delta_pct < -tolerance_pct {
            failures.push(format!("{name} regressed {:.1}%", -delta_pct));
        }
    }
    if failures.is_empty() {
        println!("gate: pass (tolerance {tolerance_pct:.0}%)");
        Ok(())
    } else {
        Err(format!(
            "bench regression gate failed (> {tolerance_pct:.0}% below baseline): {}",
            failures.join(", ")
        ))
    }
}

/// Benchmark the framework itself: PHOLD on both DES executors (plus a
/// profile-guided greedy-partition variant), an mdtest-style metadata
/// storm, and an IOR-like trip through the full pipeline, reporting
/// wall-clock and events/sec from the telemetry layer. Results land in
/// a JSON file so successive commits can be compared; `--baseline`
/// turns the comparison into a regression gate.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(args)?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    for key in flags.keys() {
        if ![
            "out",
            "threads",
            "repeat",
            "baseline",
            "tolerance",
            "timestamp",
            "history",
            "seed",
            "profile-out",
        ]
        .contains(&key.as_str())
        {
            return Err(format!("unknown option --{key}"));
        }
    }
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_obs.json".to_string());
    let parse_n = |key: &str, default: usize| -> Result<usize, String> {
        match flags.get(key) {
            None => Ok(default),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("bad --{key}: {v} (expected a positive integer)")),
            },
        }
    };
    let threads = parse_n("threads", 2)?;
    let repeat = parse_n("repeat", 1)?;
    let seed: u64 = match flags.get("seed") {
        None => 42,
        Some(v) => v.parse().map_err(|_| format!("bad --seed: {v}"))?,
    };
    let tolerance = match flags.get("tolerance") {
        None => 15.0,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|t| *t >= 0.0)
            .ok_or(format!("bad --tolerance: {v}"))?,
    };
    use pioeval::des::{build_phold, run_parallel, ParallelConfig, PholdConfig};

    // Fixed configuration so numbers are comparable across commits. The
    // population matches the des crate's default PHOLD regime (8192):
    // event density per window is what the parallel engine's window
    // store amortizes over, so this is the representative operating
    // point, not a cherry-picked one.
    let phold = PholdConfig {
        lps: 256,
        population: 8192,
        horizon: pioeval::types::SimTime::from_millis(10),
        ..PholdConfig::default()
    };

    let mut rows: Vec<BenchRow> = Vec::new();
    let mut record = |name: String, events: u64, wall: std::time::Duration| {
        let wall_ms = wall.as_secs_f64() * 1e3;
        let eps = events as f64 / wall.as_secs_f64().max(1e-9);
        println!("{name:<22} {events:>10} events {wall_ms:>9.1} ms {eps:>12.0} events/s");
        rows.push((name, events, wall_ms, eps));
    };

    let par_cfg = ParallelConfig::with_threads(threads);
    // Profile-guided variant: per-entity counts from an (untimed)
    // sequential warmup feed the greedy bin-packing partitioner.
    let (_, counts) = build_phold(&phold).run_counted();
    let greedy_cfg = ParallelConfig {
        partitioner: pioeval::des::Partitioner::greedy_from_counts(&counts),
        ..par_cfg.clone()
    };
    let live_path =
        std::env::temp_dir().join(format!("pioeval_bench_live_{}.jsonl", std::process::id()));
    let mut bench_profile: Option<pioeval::types::ExecProfile> = None;
    // The PHOLD rows run interleaved, one of each per round, so each
    // overhead row below is compared with the plain parallel run of its
    // own round rather than with a run seconds apart. The plain row sits
    // between its two instrumented twins, so both are its neighbours.
    const REQTRACE: usize = 1;
    const PLAIN: usize = 2;
    const PROFILED: usize = 3;
    let phold_names: Vec<String> = std::iter::once("phold_seq".to_string())
        .chain(
            ["_reqtrace", "", "_profiled", "_greedy", "_live"]
                .map(|suffix| format!("phold_par_t{threads}{suffix}")),
        )
        .collect();
    let phold_series = bench_interleaved(
        repeat,
        &mut [
            Box::new(|| Ok(build_phold(&phold).run().events)),
            // Tracing-overhead probe: the request-trace recorder enabled
            // on every LP (one mark per event, non-zero tid).
            Box::new(|| {
                let mut sim = pioeval::des::build_phold_traced(&phold);
                Ok(run_parallel(&mut sim, &par_cfg).events)
            }),
            Box::new(|| Ok(run_parallel(&mut build_phold(&phold), &par_cfg).events)),
            // Profiler-overhead probe: the per-worker phase recorder on
            // (two clock reads per window per worker). The last round's
            // merged profile is kept for --profile-out.
            Box::new(|| {
                let mut sim = build_phold(&phold);
                let (res, prof) = pioeval::des::run_parallel_profiled(&mut sim, &par_cfg);
                bench_profile = prof;
                Ok(res.events)
            }),
            Box::new(|| Ok(run_parallel(&mut build_phold(&phold), &greedy_cfg).events)),
            // Sampler-on variant: the live exporter streams frames to a
            // scratch file at the default interval during the run.
            Box::new(|| {
                let exporter = pioeval::obs::LiveExporter::start(
                    pioeval::obs::global(),
                    pioeval::obs::LiveConfig {
                        interval: None,
                        file: Some(live_path.clone()),
                        addr: None,
                        run_id: "bench-live".to_string(),
                    },
                )
                .map_err(|e| format!("cannot start live exporter: {e}"))?;
                let events = run_parallel(&mut build_phold(&phold), &par_cfg).events;
                exporter.finish();
                Ok(events)
            }),
        ],
    )?;
    let _ = std::fs::remove_file(&live_path);
    for (name, (events, walls)) in phold_names.iter().zip(&phold_series) {
        record(name.clone(), *events, median(walls));
    }
    if let Some(path) = flags.get("profile-out") {
        let prof = bench_profile
            .as_ref()
            .ok_or("--profile-out needs --threads >= 2 (a single worker is not profiled)")?;
        std::fs::write(path, prof.to_json())
            .map_err(|e| format!("cannot write execution profile to {path}: {e}"))?;
        println!("wrote execution profile to {path}");
    }

    // Lint wall-time on a generated large DSL program (~10k statements):
    // CFG lowering plus the abstract-interpretation passes end to end,
    // with repeat/barrier/onrank structure so every lowering path is on
    // the hot loop. `events` counts DSL statements, so the throughput
    // column reads statements linted per second.
    let lint_src = {
        let mut s =
            String::from("file data shared lane 64m\nfile log perrank\ncreate data\ncreate log\n");
        for i in 0..1250u64 {
            s.push_str(&format!(
                "repeat {}\nwrite data 4k\nwrite log 1k\nend\nbarrier\n\
                 onrank {}\nwrite log 2k\nend\nbarrier\n",
                2 + i % 7,
                i % 8,
            ));
        }
        s.push_str("close data\nclose log\n");
        s
    };
    let lint_statements = lint_src.lines().count() as u64;
    let (events, wall) = bench_median(repeat, || {
        let report = lint_dsl_source(&lint_src);
        if !report.is_clean() {
            return Err("lint_cfg_large fixture no longer lints clean".to_string());
        }
        Ok(lint_statements)
    })?;
    record("lint_cfg_large".into(), events, wall);

    // Full-pipeline trips; the DES event count comes from the telemetry
    // layer itself.
    let des_events = pioeval::obs::global().counter(pioeval::obs::names::DES_EVENTS);
    let pipeline_bench = |source: &WorkloadSource, ranks: u32| {
        bench_median(repeat, || {
            let cluster = ClusterConfig {
                num_clients: 8,
                ..ClusterConfig::default()
            };
            let before = des_events.get();
            measure(&cluster, source, ranks, StackConfig::default(), seed)
                .map_err(|e| e.to_string())?;
            Ok(des_events.get() - before)
        })
    };

    // Metadata storm: 8 ranks hammering the MDS with create/stat/unlink
    // on thousands of tiny files (mdtest-style), the metadata-bound
    // counterpart to the bandwidth-bound IOR row.
    let storm = WorkloadSource::Synthetic(Box::new(MdtestLike {
        files_per_rank: 256,
        ..MdtestLike::default()
    }));
    let (events, wall) = pipeline_bench(&storm, 8)?;
    record("mdtest_storm8".into(), events, wall);

    let ior = WorkloadSource::Synthetic(Box::new(IorLike::default()));
    let (events, wall) = pipeline_bench(&ior, 4)?;
    record("ior_ranks4".into(), events, wall);

    // DLIO-style read storm — 8 ranks re-reading a sample set over two
    // epochs with negligible compute, so the storage tier is the
    // bottleneck — measured on both bottom layers of the stack. The
    // _pfs/_obj pair is the emerging-workload counterpart to the
    // IOR row and puts the object-store path under the same gate.
    let storm_workload = DlioLike {
        num_samples: 128,
        epochs: 2,
        compute_per_batch: pioeval::types::SimDuration::from_micros(100),
        ..DlioLike::default()
    };
    let dlio = WorkloadSource::Synthetic(Box::new(storm_workload));
    let target_bench = |target: &TargetConfig| {
        bench_median(repeat, || {
            let before = des_events.get();
            pioeval::core::measure_target(target, &dlio, 8, StackConfig::default(), seed)
                .map_err(|e| e.to_string())?;
            Ok(des_events.get() - before)
        })
    };
    let pfs_target = TargetConfig::Pfs(ClusterConfig {
        num_clients: 8,
        ..ClusterConfig::default()
    });
    let (events, wall) = target_bench(&pfs_target)?;
    record("dlio_storm_pfs".into(), events, wall);
    let obj_target = TargetConfig::ObjStore(ObjStoreConfig::default());
    let (events, wall) = target_bench(&obj_target)?;
    record("dlio_storm_obj".into(), events, wall);

    // Burst-buffer write-back rows: the IOR write pattern absorbed by
    // two I/O nodes with an I/O-node loss injected mid-run, once with
    // local-only acks and once geo-stretched, so the gate tracks the
    // replication fabric, failure injector, and recovery machinery —
    // not just the healthy data path.
    let bb_target = |ack_mode: pioeval::resil::AckMode| {
        let mut resil = pioeval::resil::ResilConfig {
            ack_mode,
            ..pioeval::resil::ResilConfig::default()
        };
        resil.failures.scripted.push(pioeval::resil::FailureEvent {
            kind: pioeval::resil::FailureKind::IoNodeLoss,
            target: 0,
            at: pioeval::types::SimDuration::from_millis(2),
        });
        resil.failures.seed = pioeval::types::split_seed(seed, RESIL_SEED_STREAM);
        TargetConfig::Pfs(ClusterConfig {
            num_clients: 8,
            num_ionodes: 2,
            resil: Some(resil),
            ..ClusterConfig::default()
        })
    };
    let bb_ior = WorkloadSource::Synthetic(Box::new(IorLike::default()));
    let bb_bench = |target: &TargetConfig| {
        bench_median(repeat, || {
            let before = des_events.get();
            pioeval::core::measure_target(target, &bb_ior, 4, StackConfig::default(), seed)
                .map_err(|e| e.to_string())?;
            Ok(des_events.get() - before)
        })
    };
    let (events, wall) = bb_bench(&bb_target(pioeval::resil::AckMode::LocalOnly))?;
    record("ior_bb_local".into(), events, wall);
    let (events, wall) = bb_bench(&bb_target(pioeval::resil::AckMode::Geographic))?;
    record("ior_bb_geo".into(), events, wall);

    // Request tracing and the phase profiler must stay cheap enough to
    // leave on: each round compares the instrumented row with the plain
    // parallel row of the same round (same host, same moment), and the
    // check takes the median of those paired overheads, independent of
    // any baseline file.
    let plain_walls = &phold_series[PLAIN].1;
    let budget_pct = 5.0;
    println!();
    for (label, what, row) in [
        ("reqtrace", "request-trace", REQTRACE),
        ("profiler", "phase-profiler", PROFILED),
    ] {
        let paired: Vec<f64> = plain_walls
            .iter()
            .zip(&phold_series[row].1)
            .map(|(plain, instrumented)| {
                (1.0 - plain.as_secs_f64() / instrumented.as_secs_f64().max(1e-9)) * 100.0
            })
            .collect();
        let overhead_pct = median(&paired);
        let rounds = paired
            .iter()
            .map(|p| format!("{p:+.1}%"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{label} overhead: {overhead_pct:+.1}% events/sec vs phold_par_t{threads} \
             (median of paired rounds: {rounds}; budget {budget_pct:.0}%)"
        );
        if overhead_pct > budget_pct {
            return Err(format!(
                "{what} overhead {overhead_pct:.1}% exceeds the {budget_pct:.0}% budget \
                 ({} vs phold_par_t{threads})",
                phold_names[row]
            ));
        }
    }

    // Gate BEFORE writing: the default --out path is also the default
    // baseline path, so writing first would compare the run to itself.
    let gate_result = flags
        .get("baseline")
        .map(|baseline| bench_gate(&rows, baseline, tolerance));

    let mut json = String::from("{\n  \"schema\": \"pioeval-bench/1\",\n  \"benches\": [\n");
    for (i, (name, events, wall_ms, eps)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"events\": {events}, \
             \"wall_ms\": {wall_ms:.3}, \"events_per_sec\": {eps:.1}}}{sep}\n"
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("\nwrote {out}");

    // Archive the run for `pioeval compare`: one JSONL line per bench
    // invocation, tagged with the git revision and a timestamp.
    let history = flags
        .get("history")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_history.jsonl".to_string());
    let timestamp = match flags.get("timestamp") {
        Some(t) => t.clone(),
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs().to_string())
            .unwrap_or_else(|_| "0".to_string()),
    };
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    // Record the engine configuration alongside the numbers, so
    // `pioeval compare` can group trends by configuration instead of
    // silently mixing, say, t2 rows with t8 rows, or rows of older runs
    // that name another backend.
    let window_name = match par_cfg.window {
        pioeval::des::WindowPolicy::Fixed => "fixed",
        pioeval::des::WindowPolicy::Adaptive => "adaptive",
    };
    let mut line = format!(
        "{{\"schema\": \"pioeval-bench-history/1\", \"rev\": \"{rev}\", \
         \"timestamp\": \"{timestamp}\", \"threads\": {threads}, \
         \"backend\": \"threads\", \"window\": \"{window_name}\", \
         \"benches\": ["
    );
    for (i, (name, _, _, eps)) in rows.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        line.push_str(&format!(
            "{sep}{{\"name\": \"{name}\", \"events_per_sec\": {eps:.1}}}"
        ));
    }
    line.push_str("]}\n");
    if let Some(dir) = std::path::Path::new(&history).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append to {history}: {e}"))?;
    println!("appended to {history} (rev {rev})");

    match gate_result {
        Some(res) => res,
        None => Ok(()),
    }
}

/// Replay state for `pioeval watch`: the totals a frame stream
/// accumulates to. Summing delta frames (with `sync` frames re-basing)
/// converges to the same counter totals as the run's post-mortem
/// `--metrics json` document — that round trip is tested in CI.
#[derive(Default)]
struct WatchState {
    run: String,
    phase: String,
    frames: u64,
    /// Lines that did not parse (or lacked mandatory fields) and were
    /// skipped; surfaced so a lossy stream is visible in the totals.
    malformed: u64,
    done: bool,
    counters: Vec<(String, u64)>,
    /// Gauge name -> (last, max).
    gauges: Vec<(String, (u64, u64))>,
    spans_done: u64,
    open_spans: u64,
    last_t_us: u64,
    /// Rates over the most recent frame interval.
    ev_rate: f64,
    byte_rate: f64,
}

impl WatchState {
    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    fn gauge_last(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, (last, _))| last)
            .unwrap_or(0)
    }

    /// Fold one parsed frame into the replay.
    fn apply(&mut self, frame: &serde_json::Value) -> Result<(), String> {
        let str_of = |key: &str| -> Option<String> {
            match frame.get(key) {
                Some(serde_json::Value::Str(s)) => Some(s.clone()),
                _ => None,
            }
        };
        let kind = str_of("kind").unwrap_or_else(|| "delta".to_string());
        let t_us = frame
            .get("t_us")
            .and_then(json_u64)
            .ok_or("frame missing t_us")?;
        if kind == "sync" {
            // A sync frame is the full totals delta-encoded against
            // zero: restart the replay from scratch.
            self.counters.clear();
            self.gauges.clear();
            self.spans_done = 0;
        }
        let mut ev_delta = 0u64;
        let mut byte_delta = 0u64;
        if let Some(serde_json::Value::Map(entries)) = frame.get("counters") {
            for (name, v) in entries {
                let inc = json_u64(v).unwrap_or(0);
                if name == pioeval::obs::names::DES_LIVE_EVENTS {
                    ev_delta = inc;
                }
                if name.contains("bytes") {
                    byte_delta += inc;
                }
                match self.counters.iter_mut().find(|(n, _)| n == name) {
                    Some(entry) => entry.1 += inc,
                    None => self.counters.push((name.clone(), inc)),
                }
            }
        }
        if let Some(serde_json::Value::Map(entries)) = frame.get("gauges") {
            for (name, g) in entries {
                let last = g.get("last").and_then(json_u64).unwrap_or(0);
                let max = g.get("max").and_then(json_u64).unwrap_or(0);
                match self.gauges.iter_mut().find(|(n, _)| n == name) {
                    Some(entry) => entry.1 = (last, entry.1 .1.max(max)),
                    None => self.gauges.push((name.clone(), (last, max))),
                }
            }
        }
        self.spans_done += frame.get("spans_done").and_then(json_u64).unwrap_or(0);
        self.open_spans = frame.get("open_spans").and_then(json_u64).unwrap_or(0);
        if let Some(run) = str_of("run") {
            self.run = run;
        }
        if let Some(phase) = str_of("phase") {
            self.phase = phase;
        }
        // Rates from the deltas over the frame interval; a sync frame
        // compresses the whole history into one frame, so no rate there.
        let dt_s = t_us.saturating_sub(self.last_t_us) as f64 / 1e6;
        if kind != "sync" && self.frames > 0 && dt_s > 0.0 {
            self.ev_rate = ev_delta as f64 / dt_s;
            self.byte_rate = byte_delta as f64 / dt_s;
        }
        self.last_t_us = t_us;
        self.frames += 1;
        self.done |= kind == "done";
        Ok(())
    }

    /// One status line: elapsed, phase, totals, rates, queue depth.
    fn status_line(&self) -> String {
        format!(
            "[{:>8.2}s] {:<20} {:>11} ev {:>11.0} ev/s {:>7.1} MiB/s  queue {:>5}  spans {}/{} open",
            self.last_t_us as f64 / 1e6,
            self.phase,
            self.counter(pioeval::obs::names::DES_LIVE_EVENTS),
            self.ev_rate,
            self.byte_rate / (1 << 20) as f64,
            self.gauge_last(pioeval::obs::names::DES_LIVE_QUEUE),
            self.spans_done,
            self.open_spans,
        )
    }

    /// Final replayed totals as one JSON document (`pioeval-watch/1`).
    /// Counter values here must equal the producing run's post-mortem
    /// `metrics_json` counters.
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"schema\": \"pioeval-watch/1\"");
        let _ = write!(
            s,
            ", \"run\": \"{}\", \"frames\": {}, \"malformed\": {}, \
             \"done\": {}, \"spans_done\": {}",
            self.run.replace('"', "\\\""),
            self.frames,
            self.malformed,
            self.done,
            self.spans_done
        );
        s.push_str(", \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            let _ = write!(s, "{}\"{n}\": {v}", if i > 0 { ", " } else { "" });
        }
        s.push_str("}, \"gauges\": {");
        for (i, (n, (last, max))) in self.gauges.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{n}\": {{\"last\": {last}, \"max\": {max}}}",
                if i > 0 { ", " } else { "" }
            );
        }
        s.push_str("}}");
        s
    }
}

/// Tail of a growing JSONL file: yields complete new lines per poll.
struct FileTail {
    path: String,
    offset: u64,
}

impl FileTail {
    /// Read lines appended since the previous call. A missing file is
    /// "no lines yet" (the producer may not have created it), and a
    /// partial trailing line stays unconsumed until its newline lands.
    fn read_lines(&mut self) -> Vec<String> {
        use std::io::{Read, Seek, SeekFrom};
        let Ok(mut f) = std::fs::File::open(&self.path) else {
            return Vec::new();
        };
        if f.seek(SeekFrom::Start(self.offset)).is_err() {
            return Vec::new();
        }
        let mut buf = String::new();
        if f.read_to_string(&mut buf).is_err() {
            return Vec::new();
        }
        let consumed = buf.rfind('\n').map(|i| i + 1).unwrap_or(0);
        self.offset += consumed as u64;
        buf[..consumed].lines().map(str::to_string).collect()
    }
}

/// Tail of a live TCP frame stream (read timeout keeps polls short).
struct TcpTail {
    reader: std::io::BufReader<std::net::TcpStream>,
    pending: String,
    closed: bool,
}

impl TcpTail {
    fn read_lines(&mut self) -> Vec<String> {
        use std::io::BufRead;
        let mut out = Vec::new();
        loop {
            let mut chunk = String::new();
            match self.reader.read_line(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(_) => {
                    self.pending.push_str(&chunk);
                    if self.pending.ends_with('\n') {
                        out.push(self.pending.trim_end().to_string());
                        self.pending.clear();
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Keep any partial line for the next poll.
                    self.pending.push_str(&chunk);
                    break;
                }
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        out
    }
}

/// `pioeval watch <FILE|host:port>`: tail a live frame stream and render
/// an in-place refreshing status line (plain lines when stdout is not a
/// terminal). `--follow-until-done` makes a missing `done` frame an
/// error; `--json` prints the replayed totals as one document at exit.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    use std::io::{IsTerminal, Write as _};
    let (positional, flags) = parse_flags(args)?;
    for key in flags.keys() {
        if !["follow-until-done", "json", "timeout"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}"));
        }
    }
    let target = positional
        .first()
        .ok_or("watch requires a <FILE|ADDR> argument")?;
    if positional.len() > 1 {
        return Err(format!("unexpected argument `{}`", positional[1]));
    }
    let follow = flags.contains_key("follow-until-done");
    let json_out = flags.contains_key("json");
    let timeout = match flags.get("timeout") {
        None => 30.0,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|t| *t > 0.0)
            .ok_or(format!("bad --timeout: {v}"))?,
    };

    // A parseable socket address is a TCP stream; anything else a file.
    let mut tcp = match target.parse::<std::net::SocketAddr>() {
        Ok(addr) => {
            let stream = std::net::TcpStream::connect(addr)
                .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(200)))
                .map_err(|e| e.to_string())?;
            Some(TcpTail {
                reader: std::io::BufReader::new(stream),
                pending: String::new(),
                closed: false,
            })
        }
        Err(_) => None,
    };
    let mut file = tcp.is_none().then(|| FileTail {
        path: target.clone(),
        offset: 0,
    });

    let in_place = std::io::stdout().is_terminal() && !json_out;
    let mut state = WatchState::default();
    let mut idle = std::time::Instant::now();
    loop {
        let lines = match (&mut tcp, &mut file) {
            (Some(t), _) => t.read_lines(),
            (None, Some(f)) => f.read_lines(),
            (None, None) => unreachable!("watch source"),
        };
        let got_frames = !lines.is_empty();
        for line in &lines {
            if line.trim().is_empty() {
                continue;
            }
            // A malformed or truncated frame (producer died mid-write,
            // torn append, stray garbage) must not abort the watch: the
            // stream beyond it is still good. Warn and skip the line.
            let frame = match serde_json::parse(line) {
                Ok(frame) => frame,
                Err(e) => {
                    state.malformed += 1;
                    eprintln!("watch: skipping malformed frame ({e}): {line}");
                    continue;
                }
            };
            if let Err(e) = state.apply(&frame) {
                state.malformed += 1;
                eprintln!("watch: skipping frame ({e}): {line}");
                continue;
            }
            if !json_out {
                if in_place {
                    print!("\r{:<100}", state.status_line());
                    let _ = std::io::stdout().flush();
                } else {
                    println!("{}", state.status_line());
                }
            }
        }
        if state.done {
            break;
        }
        if got_frames {
            idle = std::time::Instant::now();
        } else {
            let stream_closed = tcp.as_ref().is_some_and(|t| t.closed);
            if stream_closed || idle.elapsed().as_secs_f64() > timeout {
                if follow {
                    return Err(format!(
                        "stream ended without a `done` frame ({} frames replayed)",
                        state.frames
                    ));
                }
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
    }
    if in_place && state.frames > 0 {
        println!();
    }
    if json_out {
        println!("{}", state.to_json());
    } else {
        println!(
            "watch: {} frames from `{}`, {} events, done={}{}",
            state.frames,
            state.run,
            state.counter(pioeval::obs::names::DES_LIVE_EVENTS),
            state.done,
            if state.malformed > 0 {
                format!(" ({} malformed lines skipped)", state.malformed)
            } else {
                String::new()
            }
        );
    }
    Ok(())
}

/// Five percentile cells (p50, p95, p99, p999, max) for a table row.
fn percentile_cells(p: &pioeval::reqtrace::PercentileSet) -> Vec<String> {
    vec![
        format!("{}", p.p50),
        format!("{}", p.p95),
        format!("{}", p.p99),
        format!("{}", p.p999),
        format!("{}", p.max),
    ]
}

/// Human rendering of a request-trace analysis.
fn render_requests(
    path: &str,
    summary: &pioeval::reqtrace::TraceSummary,
    tail: &pioeval::reqtrace::TailAttribution,
    paths: &[pioeval::reqtrace::CollectivePath],
    diag: pioeval::monitor::BottleneckClass,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path}: {} requests ({} incomplete at run end)\n",
        summary.requests, summary.incomplete
    );

    let mut table = Table::new(vec![
        "layer", "share", "total", "p50", "p95", "p99", "p999", "max",
    ]);
    let mut row = vec![
        "end-to-end".to_string(),
        String::new(),
        format!("{}", summary.total_latency),
    ];
    row.extend(percentile_cells(&summary.latency));
    table.row(row);
    for l in &summary.layers {
        let mut row = vec![
            l.bucket.name().to_string(),
            format!("{:.1}%", l.share * 100.0),
            format!("{}", l.total),
        ];
        row.extend(percentile_cells(&l.percentiles));
        table.row(row);
    }
    out.push_str(&table.render());

    let mut table = Table::new(vec!["op", "count", "p50", "p95", "p99", "p999", "max"]);
    for o in &summary.ops {
        let mut row = vec![o.op.clone(), o.count.to_string()];
        row.extend(percentile_cells(&o.latency));
        table.row(row);
    }
    out.push('\n');
    out.push_str(&table.render());

    let ts = tail.shares();
    let _ = writeln!(
        out,
        "\ntail: {} request(s) at/above p{} ({}) spend \
         queue {:.0}% service {:.0}% device {:.0}% fabric {:.0}%",
        tail.count,
        tail.percentile,
        tail.threshold,
        ts[0] * 100.0,
        ts[1] * 100.0,
        ts[2] * 100.0,
        ts[3] * 100.0,
    );
    let _ = writeln!(out, "bottleneck: {} — {}", diag.name(), diag.advice());

    if !paths.is_empty() {
        let mut table = Table::new(vec![
            "collective",
            "ranks",
            "reqs",
            "start",
            "end",
            "slowest rank",
            "slowest q/s/d/f",
        ]);
        for p in paths {
            let t = p.slowest_totals;
            table.row(vec![
                p.instance.to_string(),
                p.ranks.to_string(),
                p.requests.to_string(),
                format!("{}", p.start),
                format!("{}", p.end),
                format!("{} ({} reqs)", p.slowest_rank, p.slowest_requests),
                format!(
                    "{}/{}/{}/{}",
                    SimDuration::from_nanos(t[0]),
                    SimDuration::from_nanos(t[1]),
                    SimDuration::from_nanos(t[2]),
                    SimDuration::from_nanos(t[3]),
                ),
            ]);
        }
        out.push('\n');
        out.push_str(&table.render());
    }
    out
}

/// Machine rendering of a request-trace analysis
/// (`pioeval-requests/1`, one JSON document).
fn requests_json(
    summary: &pioeval::reqtrace::TraceSummary,
    tail: &pioeval::reqtrace::TailAttribution,
    paths: &[pioeval::reqtrace::CollectivePath],
    diag: pioeval::monitor::BottleneckClass,
) -> String {
    use std::fmt::Write as _;
    let pset = |p: &pioeval::reqtrace::PercentileSet| {
        format!(
            "{{\"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
             \"p999_ns\": {}, \"max_ns\": {}}}",
            p.p50.as_nanos(),
            p.p95.as_nanos(),
            p.p99.as_nanos(),
            p.p999.as_nanos(),
            p.max.as_nanos()
        )
    };
    let mut s = String::from("{\"schema\": \"pioeval-requests/1\"");
    let _ = write!(
        s,
        ", \"requests\": {}, \"incomplete\": {}, \"total_latency_ns\": {}, \
         \"latency\": {}",
        summary.requests,
        summary.incomplete,
        summary.total_latency.as_nanos(),
        pset(&summary.latency)
    );
    s.push_str(", \"layers\": [");
    for (i, l) in summary.layers.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"layer\": \"{}\", \"total_ns\": {}, \"share\": {:.6}, \
             \"percentiles\": {}}}",
            if i > 0 { ", " } else { "" },
            l.bucket.name(),
            l.total.as_nanos(),
            l.share,
            pset(&l.percentiles)
        );
    }
    s.push_str("], \"ops\": [");
    for (i, o) in summary.ops.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"op\": \"{}\", \"count\": {}, \"latency\": {}}}",
            if i > 0 { ", " } else { "" },
            o.op,
            o.count,
            pset(&o.latency)
        );
    }
    let ts = tail.shares();
    let _ = write!(
        s,
        "], \"tail\": {{\"percentile\": {}, \"threshold_ns\": {}, \
         \"count\": {}, \"shares\": [{:.6}, {:.6}, {:.6}, {:.6}]}}",
        tail.percentile,
        tail.threshold.as_nanos(),
        tail.count,
        ts[0],
        ts[1],
        ts[2],
        ts[3]
    );
    let _ = write!(
        s,
        ", \"bottleneck\": {{\"class\": \"{}\", \"advice\": \"{}\"}}",
        diag.name(),
        diag.advice()
    );
    s.push_str(", \"collectives\": [");
    for (i, p) in paths.iter().enumerate() {
        let t = p.slowest_totals;
        let _ = write!(
            s,
            "{}{{\"instance\": {}, \"ranks\": {}, \"requests\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"slowest_rank\": {}, \
             \"slowest_requests\": {}, \
             \"slowest_totals_ns\": [{}, {}, {}, {}]}}",
            if i > 0 { ", " } else { "" },
            p.instance,
            p.ranks,
            p.requests,
            p.start.as_nanos(),
            p.end.as_nanos(),
            p.slowest_rank,
            p.slowest_requests,
            t[0],
            t[1],
            t[2],
            t[3]
        );
    }
    s.push_str("]}");
    s
}

/// `pioeval requests <FILE>`: analyze a simulated-time request trace
/// written by `--request-trace`: end-to-end and per-layer tail
/// percentiles, per-op stats, tail-latency attribution, per-collective
/// critical paths, and a bottleneck diagnosis.
fn cmd_requests(args: &[String]) -> Result<(), String> {
    use pioeval::reqtrace as rt;
    let (positional, flags) = parse_flags(args)?;
    for key in flags.keys() {
        if !["json", "chrome", "tail"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}"));
        }
    }
    let path = positional
        .first()
        .ok_or("requests requires a <FILE> argument")?;
    if positional.len() > 1 {
        return Err(format!("unexpected argument `{}`", positional[1]));
    }
    let json_out = flags.contains_key("json");
    let tail_pct = match flags.get("tail") {
        None => 99.0,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|p| *p > 0.0 && *p < 100.0)
            .ok_or(format!("bad --tail: {v} (expected 0 < PCT < 100)"))?,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (requests, incomplete) = rt::read_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(out) = flags.get("chrome") {
        std::fs::write(out, rt::chrome_trace(&requests))
            .map_err(|e| format!("cannot write chrome trace to {out}: {e}"))?;
        if !json_out {
            println!("simulated-time chrome trace written to {out}");
        }
    }
    let summary = rt::summarize(&requests, incomplete);
    let tail = rt::tail_attribution(&requests, tail_pct);
    let paths = rt::collective_paths(&requests);
    let diag = pioeval::monitor::classify_bottleneck(summary.shares());
    if json_out {
        println!("{}", requests_json(&summary, &tail, &paths, diag));
    } else {
        print!("{}", render_requests(path, &summary, &tail, &paths, diag));
    }
    Ok(())
}

/// Parse a `pioeval-profile/1` document (as written by `--profile-out`)
/// back into the in-memory [`pioeval::types::ExecProfile`].
fn parse_profile(doc: &serde_json::Value) -> Result<pioeval::types::ExecProfile, String> {
    use pioeval::types::{ExecProfile, ProfPhase, WindowSample, WorkerProfile, NO_LIMITER};
    let str_of = |v: &serde_json::Value, key: &str| -> Result<String, String> {
        match v.get(key) {
            Some(serde_json::Value::Str(s)) => Ok(s.clone()),
            other => Err(format!("field \"{key}\": expected a string, got {other:?}")),
        }
    };
    let u64_of = |v: &serde_json::Value, key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(json_u64)
            .ok_or_else(|| format!("field \"{key}\": expected an unsigned integer"))
    };
    let phases_of = |v: &serde_json::Value| -> Result<[u64; pioeval::types::PROF_PHASES], String> {
        let mut out = [0u64; pioeval::types::PROF_PHASES];
        for p in ProfPhase::ALL {
            out[p.index()] = u64_of(v, &format!("{}_ns", p.name()))?;
        }
        Ok(out)
    };
    let schema = str_of(doc, "schema")?;
    if schema != ExecProfile::SCHEMA {
        return Err(format!(
            "unsupported profile schema {schema:?} (want {:?})",
            ExecProfile::SCHEMA
        ));
    }
    let mut workers = Vec::new();
    if let Some(serde_json::Value::Seq(items)) = doc.get("workers") {
        for w in items {
            let mut samples = Vec::new();
            if let Some(serde_json::Value::Seq(ss)) = w.get("samples") {
                for s in ss {
                    let limiter = match s.get("limiter") {
                        Some(serde_json::Value::I64(i)) if *i < 0 => NO_LIMITER,
                        Some(v) => json_u64(v)
                            .ok_or_else(|| "field \"limiter\": expected an integer".to_string())?
                            as u32,
                        None => NO_LIMITER,
                    };
                    samples.push(WindowSample {
                        start_ns: u64_of(s, "start_ns")?,
                        phase_ns: phases_of(s)?,
                        events: u64_of(s, "events")?,
                        limiter,
                    });
                }
            }
            workers.push(WorkerProfile {
                worker: u64_of(w, "worker")? as u32,
                entities: u64_of(w, "entities")?,
                events: u64_of(w, "events")?,
                windows: u64_of(w, "windows")?,
                null_windows: u64_of(w, "null_windows")?,
                span_ns: u64_of(w, "span_ns")?,
                phase_ns: phases_of(w)?,
                samples,
                dropped_samples: u64_of(w, "dropped_samples")?,
            });
        }
    }
    if workers.is_empty() {
        return Err("profile has no workers".to_string());
    }
    Ok(ExecProfile {
        threads: u64_of(doc, "threads")? as u32,
        backend: str_of(doc, "backend")?,
        window_policy: str_of(doc, "window_policy")?,
        partitioner: str_of(doc, "partitioner")?,
        lookahead_ns: u64_of(doc, "lookahead_ns")?,
        wall_ns: u64_of(doc, "wall_ns")?,
        windows: u64_of(doc, "windows")?,
        workers,
    })
}

/// Escape `s` as the body of a JSON string literal.
fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The `pioeval profile --json` attribution document (hand-rolled like
/// every other machine surface in this binary).
fn profile_json(p: &pioeval::types::ExecProfile, a: &pioeval::monitor::ProfileAnalysis) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "{{\"schema\": \"{}\", \"threads\": {}, \"backend\": \"{}\", \
         \"window_policy\": \"{}\", \"partitioner\": \"{}\", \
         \"wall_ns\": {}, \"windows\": {}, \"total_compute_ns\": {}, \
         \"parallel_efficiency\": {:.6}, \"compute_imbalance\": {:.6}, \
         \"stall_share\": {:.6}, \"barrier_share\": {:.6}, \
         \"mailbox_share\": {:.6}, \"classification\": \"{}\", \
         \"ceiling_ideal_partition\": {:.4}, \
         \"ceiling_infinite_lookahead\": {:.4}",
        pioeval::types::ExecProfile::SCHEMA,
        a.threads,
        json_escape(&p.backend),
        json_escape(&p.window_policy),
        json_escape(&p.partitioner),
        a.wall_ns,
        a.windows,
        a.total_compute_ns,
        a.parallel_efficiency,
        a.compute_imbalance,
        a.stall_share,
        a.barrier_share,
        a.mailbox_share,
        a.classification.name(),
        a.ceiling_ideal_partition,
        a.ceiling_infinite_lookahead,
    );
    s.push_str(", \"causes\": [");
    for (i, c) in a.causes.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\": \"{}\", \"share\": {:.6}, \"detail\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            json_escape(&c.name),
            c.share,
            json_escape(&c.detail)
        );
    }
    s.push_str("], \"critical\": [");
    for (i, c) in a.critical.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"worker\": {}, \"windows_limiting\": {}, \"share\": {:.6}}}",
            if i > 0 { ", " } else { "" },
            c.worker,
            c.windows_limiting,
            c.share
        );
    }
    s.push_str("], \"workers\": [");
    for (i, w) in a.workers.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"worker\": {}, \"entities\": {}, \"events\": {}, \
             \"span_ns\": {}, \"compute_ns\": {}, \"mailbox_ns\": {}, \
             \"barrier_ns\": {}, \"stall_ns\": {}, \
             \"blocked_share\": {:.6}, \"null_share\": {:.6}}}",
            if i > 0 { ", " } else { "" },
            w.worker,
            w.entities,
            w.events,
            w.span_ns,
            w.phase_ns[pioeval::types::ProfPhase::Compute.index()],
            w.phase_ns[pioeval::types::ProfPhase::MailboxDrain.index()],
            w.phase_ns[pioeval::types::ProfPhase::Barrier.index()],
            w.phase_ns[pioeval::types::ProfPhase::HorizonStall.index()],
            w.blocked_share,
            w.null_share
        );
    }
    s.push_str("]}");
    s
}

/// Render the human `pioeval profile` report.
fn render_profile(
    path: &str,
    p: &pioeval::types::ExecProfile,
    a: &pioeval::monitor::ProfileAnalysis,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "execution profile `{path}`: {} workers, {} backend, {} window, \
         {} partition | lookahead {} ns",
        a.threads, p.backend, p.window_policy, p.partitioner, p.lookahead_ns
    );
    let _ = writeln!(
        out,
        "wall {:.2} ms | {} windows | parallel efficiency {:.0}% | \
         compute imbalance {:.2}",
        a.wall_ns as f64 / 1e6,
        a.windows,
        100.0 * a.parallel_efficiency,
        a.compute_imbalance
    );
    out.push('\n');
    let mut table = Table::new(vec![
        "worker", "entities", "events", "compute", "mailbox", "barrier", "stall", "null win",
    ]);
    let pct = |num: u64, den: u64| format!("{:.1}%", 100.0 * num as f64 / (den as f64).max(1.0));
    for w in &a.workers {
        table.row(vec![
            w.worker.to_string(),
            w.entities.to_string(),
            w.events.to_string(),
            pct(
                w.phase_ns[pioeval::types::ProfPhase::Compute.index()],
                w.span_ns,
            ),
            pct(
                w.phase_ns[pioeval::types::ProfPhase::MailboxDrain.index()],
                w.span_ns,
            ),
            pct(
                w.phase_ns[pioeval::types::ProfPhase::Barrier.index()],
                w.span_ns,
            ),
            pct(
                w.phase_ns[pioeval::types::ProfPhase::HorizonStall.index()],
                w.span_ns,
            ),
            format!("{:.0}%", 100.0 * w.null_share),
        ]);
    }
    out.push_str(&table.render());
    if !a.critical.is_empty() {
        out.push_str("\ncritical workers (whose clock bounded peers' horizons)\n");
        for c in &a.critical {
            let _ = writeln!(
                out,
                "  worker {} limited {:.0}% of peer-bounded windows ({})",
                c.worker,
                100.0 * c.share,
                c.windows_limiting
            );
        }
    }
    let _ = writeln!(out, "\nclassification: {}", a.classification.name());
    for c in &a.causes {
        let _ = writeln!(
            out,
            "  {:<20} {:>5.1}%  {}",
            c.name,
            100.0 * c.share,
            c.detail
        );
    }
    let _ = writeln!(
        out,
        "\nwhat-if ceilings: ideal partitioning x{:.2} | infinite lookahead x{:.2}",
        a.ceiling_ideal_partition, a.ceiling_infinite_lookahead
    );
    out
}

/// `pioeval profile <FILE>`: lost-parallelism attribution over a
/// `--profile-out` document — per-worker phase breakdown, critical
/// (horizon-limiting) workers, skew-vs-lookahead classification, and
/// what-if speedup ceilings.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(args)?;
    for key in flags.keys() {
        if !["json", "chrome"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}"));
        }
    }
    let path = positional
        .first()
        .ok_or("profile requires a <FILE> argument")?;
    if positional.len() > 1 {
        return Err(format!("unexpected argument `{}`", positional[1]));
    }
    let json_out = flags.contains_key("json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let prof = parse_profile(&doc).map_err(|e| format!("{path}: {e}"))?;
    if !prof.conserves() {
        return Err(format!(
            "{path}: phase durations do not tile the worker spans — \
             corrupt or truncated profile"
        ));
    }
    if let Some(out) = flags.get("chrome") {
        std::fs::write(out, pioeval::monitor::profile_chrome_trace(&prof))
            .map_err(|e| format!("cannot write chrome trace to {out}: {e}"))?;
        if !json_out {
            println!("per-worker chrome trace written to {out}");
        }
    }
    let analysis = pioeval::monitor::analyze_profile(&prof);
    if json_out {
        println!("{}", profile_json(&prof, &analysis));
    } else {
        print!("{}", render_profile(path, &prof, &analysis));
    }
    Ok(())
}

/// One archived bench run: (git rev, timestamp, engine config,
/// [(bench name, ev/s)]). The config string is `t{N}/{backend}/{window}`
/// for rows recorded since those fields existed, `unlabeled` before.
type HistoryEntry = (String, String, String, Vec<(String, f64)>);

/// `pioeval compare`: render per-benchmark trends over the archived
/// bench history (`results/BENCH_history.jsonl`, appended by every
/// `pioeval bench` run) — UMAMI-style, but in a terminal: one sparkline
/// per benchmark over the last N runs plus the latest-vs-previous delta.
fn cmd_compare(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(args)?;
    if let Some(extra) = positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    for key in flags.keys() {
        if !["last", "history"].contains(&key.as_str()) {
            return Err(format!("unknown option --{key}"));
        }
    }
    let last = match flags.get("last") {
        None => 8usize,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 2 => n,
            _ => return Err(format!("bad --last: {v} (expected an integer >= 2)")),
        },
    };
    let history = flags
        .get("history")
        .cloned()
        .unwrap_or_else(|| "results/BENCH_history.jsonl".to_string());
    let text = std::fs::read_to_string(&history)
        .map_err(|e| format!("cannot read {history}: {e} (run `pioeval bench` first)"))?;

    let mut entries: Vec<HistoryEntry> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = serde_json::parse(line)
            .map_err(|e| format!("{history}:{}: not valid JSON: {e}", lineno + 1))?;
        let str_of = |key: &str| -> String {
            match doc.get(key) {
                Some(serde_json::Value::Str(s)) => s.clone(),
                Some(other) => json_f64(other).map(|f| format!("{f}")).unwrap_or_default(),
                None => "?".to_string(),
            }
        };
        let mut benches = Vec::new();
        if let Some(serde_json::Value::Seq(items)) = doc.get("benches") {
            for item in items {
                if let (Some(serde_json::Value::Str(name)), Some(eps)) = (
                    item.get("name"),
                    item.get("events_per_sec").and_then(json_f64),
                ) {
                    benches.push((name.clone(), eps));
                }
            }
        }
        let config = match (
            doc.get("threads").and_then(json_u64),
            doc.get("backend"),
            doc.get("window"),
        ) {
            (Some(t), Some(serde_json::Value::Str(b)), Some(serde_json::Value::Str(w))) => {
                format!("t{t}/{b}/{w}")
            }
            _ => "unlabeled".to_string(),
        };
        entries.push((str_of("rev"), str_of("timestamp"), config, benches));
    }
    if entries.len() < 2 {
        return Err(format!(
            "{history}: need at least 2 archived runs to compare (have {})",
            entries.len()
        ));
    }
    let window = &entries[entries.len().saturating_sub(last)..];
    println!(
        "bench trend over the last {} runs ({} .. {}), newest right:",
        window.len(),
        window[0].0,
        window.last().expect("window nonempty").0
    );
    let eps_of = |set: &[(String, f64)], name: &str| -> Option<f64> {
        set.iter().find(|(n, _)| n == name).map(|&(_, e)| e)
    };
    // Trends are only meaningful within one engine configuration:
    // group the window by its recorded (threads, backend, window
    // policy) and render each group's sparklines separately.
    let mut configs: Vec<&str> = Vec::new();
    for (_, _, config, _) in window {
        if !configs.contains(&config.as_str()) {
            configs.push(config);
        }
    }
    for config in configs {
        let group: Vec<&HistoryEntry> = window.iter().filter(|e| e.2 == config).collect();
        let latest = group.last().expect("group nonempty");
        println!(
            "\nengine config {config} ({} run{}):",
            group.len(),
            if group.len() == 1 { "" } else { "s" }
        );
        let previous = group.len().checked_sub(2).map(|i| group[i]);
        for (name, latest_eps) in &latest.3 {
            let series: Vec<f64> = group
                .iter()
                .filter_map(|(_, _, _, benches)| eps_of(benches, name))
                .collect();
            let delta = match previous.and_then(|p| eps_of(&p.3, name)) {
                Some(prev_eps) if prev_eps > 0.0 => {
                    format!("{:+6.1}% vs prev", (latest_eps / prev_eps - 1.0) * 100.0)
                }
                _ => "new".to_string(),
            };
            println!(
                "{name:<22} {:<10} {latest_eps:>12.0} ev/s  {delta}",
                pioeval::core::sparkline(&series)
            );
        }
    }
    Ok(())
}

fn cmd_taxonomy() {
    let mut table = Table::new(vec!["phase", "strategy", "section", "implemented by"]);
    for s in pioeval::core::taxonomy() {
        table.row(vec![
            format!("{:?}", s.phase),
            s.name.to_string(),
            s.section.to_string(),
            s.implemented_by.to_string(),
        ]);
    }
    print!("{}", table.render());
}

fn cmd_corpus() {
    let papers = pioeval::corpus::included();
    let dist = pioeval::corpus::Distribution::of(&papers);
    println!("{} included papers (2015-2020)\n", papers.len());
    print!("{}", dist.render());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("dsl") => cmd_dsl(&args[1..]),
        Some("lint") => match cmd_lint(&args[1..]) {
            Ok(true) => Ok(()),
            Ok(false) => return ExitCode::FAILURE, // findings already printed
            Err(e) => Err(e),
        },
        Some("watch") => cmd_watch(&args[1..]),
        Some("requests") => cmd_requests(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("taxonomy") => {
            cmd_taxonomy();
            Ok(())
        }
        Some("corpus") => {
            cmd_corpus();
            Ok(())
        }
        Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_keys_and_positionals() {
        let (pos, flags) =
            parse_flags(&strs(&["file.pio", "--ranks", "4", "--seed", "7"])).unwrap();
        assert_eq!(pos, vec!["file.pio"]);
        assert_eq!(flags["ranks"], "4");
        assert_eq!(flags["seed"], "7");
        assert!(parse_flags(&strs(&["--ranks"])).is_err());
    }

    #[test]
    fn options_validate() {
        let (_, flags) = parse_flags(&strs(&["--ranks", "4", "--ionodes", "2"])).unwrap();
        let opts = options_from(&flags).unwrap();
        assert_eq!(opts.ranks, 4);
        assert_eq!(opts.ionodes, 2);
        let (_, bad) = parse_flags(&strs(&["--ranks", "zero"])).unwrap();
        assert!(options_from(&bad).is_err());
        let (_, unknown) = parse_flags(&strs(&["--frobnicate", "1"])).unwrap();
        assert!(options_from(&unknown).is_err());
        let (_, zero) = parse_flags(&strs(&["--ranks", "0"])).unwrap();
        assert!(options_from(&zero).is_err());
    }

    #[test]
    fn all_bundled_workloads_resolve() {
        for name in [
            "ior",
            "mdtest",
            "checkpoint",
            "btio",
            "dlio",
            "analytics",
            "workflow",
        ] {
            assert!(workload_by_name(name).is_ok(), "{name}");
        }
        assert!(workload_by_name("nope").is_err());
    }

    #[test]
    fn bool_flags_take_no_value() {
        let (pos, flags) =
            parse_flags(&strs(&["--quiet", "file.pio", "--ranks", "4", "--json"])).unwrap();
        assert_eq!(pos, vec!["file.pio"]);
        assert_eq!(flags["quiet"], "true");
        assert_eq!(flags["json"], "true");
        assert_eq!(flags["ranks"], "4");
        let opts = options_from(&{
            let (_, f) = parse_flags(&strs(&[
                "--quiet",
                "--live-out",
                "/tmp/f.jsonl",
                "--live-interval",
                "50",
                "--run-id",
                "r1",
            ]))
            .unwrap();
            f
        })
        .unwrap();
        assert!(opts.quiet);
        assert_eq!(opts.live_out.as_deref(), Some("/tmp/f.jsonl"));
        assert_eq!(opts.live_interval_ms, Some(50));
        assert_eq!(opts.run_id.as_deref(), Some("r1"));
        let (_, zero) = parse_flags(&strs(&["--live-interval", "0"])).unwrap();
        assert!(options_from(&zero).is_err());
    }

    #[test]
    fn watch_state_replays_deltas_and_rebases_on_sync() {
        let mut st = WatchState::default();
        let apply =
            |st: &mut WatchState, line: &str| st.apply(&serde_json::parse(line).unwrap()).unwrap();
        apply(
            &mut st,
            "{\"schema\":\"pioeval-live/1\",\"run\":\"r\",\"seq\":0,\"t_us\":100,\
             \"kind\":\"delta\",\"phase\":\"a\",\"open_spans\":1,\
             \"counters\":{\"des.live.events\":10,\"obj.put_bytes\":512},\
             \"gauges\":{\"des.live.queue_depth\":{\"last\":4,\"max\":9}}}",
        );
        apply(
            &mut st,
            "{\"schema\":\"pioeval-live/1\",\"run\":\"r\",\"seq\":1,\"t_us\":1100,\
             \"kind\":\"delta\",\"phase\":\"b\",\"open_spans\":0,\
             \"counters\":{\"des.live.events\":5},\"spans_done\":2}",
        );
        assert_eq!(st.counter("des.live.events"), 15);
        assert_eq!(st.counter("obj.put_bytes"), 512);
        assert_eq!(st.gauge_last("des.live.queue_depth"), 4);
        assert_eq!(st.spans_done, 2);
        assert_eq!(st.phase, "b");
        assert!((st.ev_rate - 5000.0).abs() < 1.0, "{}", st.ev_rate);
        // A sync frame replaces the accumulated totals outright.
        apply(
            &mut st,
            "{\"schema\":\"pioeval-live/1\",\"run\":\"r\",\"seq\":2,\"t_us\":1200,\
             \"kind\":\"sync\",\"phase\":\"b\",\"open_spans\":0,\
             \"counters\":{\"des.live.events\":40}}",
        );
        assert_eq!(st.counter("des.live.events"), 40);
        assert_eq!(st.counter("obj.put_bytes"), 0);
        assert!(!st.done);
        apply(
            &mut st,
            "{\"schema\":\"pioeval-live/1\",\"run\":\"r\",\"seq\":3,\"t_us\":1300,\
             \"kind\":\"done\",\"phase\":\"b\",\"open_spans\":0}",
        );
        assert!(st.done);
        let doc = serde_json::parse(&st.to_json()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("des.live.events"))
                .and_then(json_u64),
            Some(40)
        );
    }

    #[test]
    fn file_tail_yields_only_complete_lines() {
        use std::io::Write as _;
        let path = std::env::temp_dir().join(format!("pioeval_tail_{}.jsonl", std::process::id()));
        let mut tail = FileTail {
            path: path.to_str().unwrap().to_string(),
            offset: 0,
        };
        assert!(tail.read_lines().is_empty(), "missing file = no lines yet");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(b"one\ntwo\npart").unwrap();
        f.flush().unwrap();
        assert_eq!(tail.read_lines(), vec!["one", "two"]);
        f.write_all(b"ial\n").unwrap();
        f.flush().unwrap();
        assert_eq!(tail.read_lines(), vec!["partial"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn request_trace_flag_parses_and_rejects_collision() {
        let (_, flags) = parse_flags(&strs(&["--request-trace", "/tmp/req.jsonl"])).unwrap();
        let opts = options_from(&flags).unwrap();
        assert_eq!(opts.request_trace.as_deref(), Some("/tmp/req.jsonl"));
        // Same path for the wall-clock and the simulated-time trace is
        // a configuration error (one would clobber the other).
        let (_, collide) = parse_flags(&strs(&[
            "--trace-out",
            "/tmp/t.json",
            "--request-trace",
            "/tmp/t.json",
        ]))
        .unwrap();
        let err = options_from(&collide).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
        assert!(err.contains("--request-trace"), "{err}");
        // Distinct paths are fine.
        let (_, ok) = parse_flags(&strs(&[
            "--trace-out",
            "/tmp/t.json",
            "--request-trace",
            "/tmp/r.jsonl",
        ]))
        .unwrap();
        assert!(options_from(&ok).is_ok());
    }

    #[test]
    fn watch_survives_malformed_frames() {
        use std::io::Write as _;
        // Regression: `pioeval watch` used to hard-abort on the first
        // unparseable line; a torn append from a dying producer must
        // only skip that line.
        let path =
            std::env::temp_dir().join(format!("pioeval_watch_bad_{}.jsonl", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(
            f,
            "{{\"schema\":\"pioeval-live/1\",\"run\":\"r\",\"t_us\":100,\
             \"kind\":\"delta\",\"counters\":{{\"des.live.events\":10}}}}"
        )
        .unwrap();
        // Truncated mid-write, plain garbage, and a frame missing the
        // mandatory t_us field.
        writeln!(f, "{{\"schema\":\"pioeval-live/1\",\"run\":").unwrap();
        writeln!(f, "not json at all").unwrap();
        writeln!(
            f,
            "{{\"schema\":\"pioeval-live/1\",\"run\":\"r\",\"kind\":\"delta\"}}"
        )
        .unwrap();
        writeln!(
            f,
            "{{\"schema\":\"pioeval-live/1\",\"run\":\"r\",\"t_us\":200,\"kind\":\"done\"}}"
        )
        .unwrap();
        drop(f);
        let res = cmd_watch(&strs(&[path.to_str().unwrap(), "--json"]));
        assert!(res.is_ok(), "{res:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn requests_analyzer_round_trips_a_trace() {
        // Build a tiny assembly, write it the same way `--request-trace`
        // does, and run the analyzer over the file in both modes.
        use pioeval::reqtrace as rt;
        use pioeval::types::{ReqOp, SimTime, NO_COLLECTIVE};
        let issue = SimTime::from_nanos(10);
        let done = SimTime::from_nanos(110);
        let req = rt::RequestRecord {
            tid: (1u64) << 32 | 7,
            rank: 0,
            op: ReqOp::Write,
            file: 3,
            bytes: 4096,
            collective: NO_COLLECTIVE,
            issue,
            done,
            spans: vec![rt::Span {
                entity: 2,
                label: "oss".into(),
                bucket: rt::Bucket::Device,
                start: issue,
                end: done,
            }],
        };
        let path =
            std::env::temp_dir().join(format!("pioeval_requests_cli_{}.jsonl", std::process::id()));
        std::fs::write(&path, rt::write_jsonl(std::slice::from_ref(&req), 0)).unwrap();
        let chrome = std::env::temp_dir().join(format!(
            "pioeval_requests_cli_{}.chrome.json",
            std::process::id()
        ));
        let res = cmd_requests(&strs(&[path.to_str().unwrap()]));
        assert!(res.is_ok(), "{res:?}");
        let res = cmd_requests(&strs(&[
            path.to_str().unwrap(),
            "--json",
            "--chrome",
            chrome.to_str().unwrap(),
        ]));
        assert!(res.is_ok(), "{res:?}");
        let chrome_doc = std::fs::read_to_string(&chrome).unwrap();
        assert!(serde_json::parse(&chrome_doc).is_ok());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&chrome);
    }

    #[test]
    fn cluster_accommodates_ranks() {
        let opts = Options {
            ranks: 128,
            clients: 8,
            ..Options::default()
        };
        let cfg = cluster_from(&opts);
        assert!(cfg.num_clients >= 128);
        assert_eq!(cfg.num_mds, 1);
    }
}
