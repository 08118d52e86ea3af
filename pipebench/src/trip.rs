//! Measurement trips: the plain one through
//! `pioeval_core::measure_target_instrumented`, and the staged one that
//! calls each layer's public function itself and times every call.

use crate::workload::{Bench, Input, DSL_BASE_FILE};
use pioeval_core::{measure_target_instrumented, MeasurementReport, TargetConfig, WorkloadSource};
use pioeval_des::{ExecMode, SimConfig};
use pioeval_iostack::{
    collect_on, drain_request_events, enable_request_trace, launch_on, JobSpec, StackConfig,
    StorageTarget,
};
use pioeval_monitor::SystemAnalysis;
use pioeval_trace::DxtTrace;
use pioeval_types::SimTime;
use std::time::Instant;

/// Turn the generated input into a workload source (`dsl.parse_s`:
/// `parse_dsl` for DSL input, boxing the generator otherwise) and run the
/// pre-flight lint `pioeval run` / `pioeval dsl` run (`lint.check_s`:
/// the target configuration, plus the DSL source), timing both on
/// `clock`. Any lint finding fails the trip.
fn source_of(bench: &Bench, clock: &mut Clock) -> Result<WorkloadSource, String> {
    let source = clock.time("dsl.parse_s", || match &bench.input {
        Input::Generator(make) => Ok(WorkloadSource::Synthetic(make())),
        Input::Dsl(src) => pioeval_workloads::parse_dsl(src, DSL_BASE_FILE)
            .map(|w| WorkloadSource::Synthetic(Box::new(w)))
            .map_err(|e| format!("generated DSL does not parse: {e}")),
    })?;
    let report = clock.time("lint.check_s", || {
        let lookahead = SimConfig::default().lookahead;
        let mut report = match &bench.target {
            TargetConfig::Pfs(c) => pioeval_lint::lint_config(c, lookahead),
            TargetConfig::ObjStore(c) => pioeval_lint::lint_objstore_config(c, lookahead),
        };
        if let Input::Dsl(src) = &bench.input {
            report.merge(pioeval_lint::lint_dsl_source(src));
        }
        report
    });
    if !report.diagnostics.is_empty() {
        return Err(format!(
            "input does not lint clean: {:?}",
            report.diagnostics
        ));
    }
    Ok(source)
}

/// Wall seconds of consecutive, named stages.
#[derive(Default)]
pub struct Clock {
    /// `(stage, seconds)` in the order they ran.
    pub stages: Vec<(&'static str, f64)>,
}

impl Clock {
    /// Run `f` as stage `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.stages.push((name, t.elapsed().as_secs_f64()));
        out
    }

    /// Seconds of stage `name` (0 when it did not run).
    pub fn get(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    /// Sum of every stage.
    pub fn total(&self) -> f64 {
        self.stages.iter().map(|(_, s)| s).sum()
    }
}

/// One plain trip: what `pioeval run` / `pioeval dsl` do between reading
/// the input and printing the report (source and pre-flight lint
/// included). The report goes to `keep`, whose error fails the trip,
/// then is dropped inside the trip. Returns the wall seconds without the
/// time `keep` took.
pub fn plain<K>(
    bench: &Bench,
    exec: &ExecMode,
    request_trace: bool,
    keep: impl FnOnce(&MeasurementReport) -> Result<K, String>,
) -> Result<(f64, K), String> {
    let start = Instant::now();
    let source = source_of(bench, &mut Clock::default())?;
    let report = measure_target_instrumented(
        &bench.target,
        &source,
        bench.nranks,
        StackConfig::default(),
        bench.seed,
        exec,
        request_trace,
        false,
    )
    .map_err(|e| format!("measure_target_instrumented failed: {e}"))?;
    let keep_start = Instant::now();
    let kept = keep(&report)?;
    let keep_s = keep_start.elapsed().as_secs_f64();
    drop((report, source));
    Ok((start.elapsed().as_secs_f64() - keep_s, kept))
}

/// Set-up only: from generated input to a launched job (source and
/// pre-flight lint, target build, lowering, `launch_on`). Seconds.
pub fn setup(bench: &Bench) -> Result<f64, String> {
    let start = Instant::now();
    let source = source_of(bench, &mut Clock::default())?;
    let mut target = bench
        .target
        .build()
        .map_err(|e| format!("target build failed: {e}"))?;
    let spec = JobSpec {
        programs: source.programs(bench.nranks, bench.seed),
        stack: StackConfig::default(),
        start: SimTime::ZERO,
    };
    std::hint::black_box(launch_on(&mut target, &spec));
    let secs = start.elapsed().as_secs_f64();
    drop((target, spec));
    Ok(secs)
}

/// What a staged trip produced.
pub struct Staged<K> {
    /// Stage clock.
    pub clock: Clock,
    /// Wall seconds of the whole trip, first stage to last, without the
    /// time `keep` took.
    pub wall: f64,
    /// DES events processed.
    pub events: u64,
    /// Operations in the lowered programs.
    pub ops: u64,
    /// Captured layer records.
    pub records: u64,
    /// What `keep` took from the report.
    pub kept: K,
}

/// One staged trip: the body of `measure_target_instrumented`, with
/// each layer call timed from outside. The report is rebuilt from the
/// stage outputs exactly as `measure_target_instrumented` builds it,
/// handed to `keep` (outside the clock; its error fails the trip), then
/// dropped inside the trip as stage `bench.drop_s`, as the plain trip
/// drops its own.
pub fn staged<K>(
    bench: &Bench,
    exec: &ExecMode,
    request_trace: bool,
    profile: bool,
    keep: impl FnOnce(&MeasurementReport) -> Result<K, String>,
) -> Result<Staged<K>, String> {
    let start = Instant::now();
    let mut clock = Clock::default();
    let source = source_of(bench, &mut clock)?;
    let mut target = clock
        .time("core.build_s", || bench.target.build())
        .map_err(|e| format!("target build failed: {e}"))?;
    let programs = clock.time("workloads.lower_s", || {
        source.programs(bench.nranks, bench.seed)
    });
    let ops = programs.iter().map(|p| p.len() as u64).sum();
    let spec = JobSpec {
        programs,
        stack: StackConfig::default(),
        start: SimTime::ZERO,
    };
    let handle = clock.time("iostack.launch_s", || {
        let handle = launch_on(&mut target, &spec);
        if request_trace {
            enable_request_trace(&mut target, &handle);
        }
        handle
    });
    let (run, exec_profile) = if profile {
        clock.time("des.simulate_s", || target.run_exec_profiled(exec))
    } else {
        (clock.time("des.simulate_s", || target.run_exec(exec)), None)
    };
    let requests = if request_trace {
        let events = clock.time("reqtrace.drain_s", || {
            drain_request_events(&mut target, &handle)
        });
        Some(clock.time("reqtrace.assemble_s", move || {
            pioeval_reqtrace::assemble(&events)
        }))
    } else {
        None
    };
    let job = clock.time("iostack.collect_s", || collect_on(&target, &handle));
    let (profile_out, dxt, records) = clock.time("trace.products_s", || {
        let all = job.all_records();
        (
            job.merged_profile(),
            DxtTrace::from_records(&all),
            all.len(),
        )
    });
    let (servers, mds_ops, fabrics, burst_buffers, gateways, resilience) =
        clock.time("storage.stats_s", || match &mut target {
            StorageTarget::Pfs(c) => (
                c.oss_stats(),
                c.mds_requests(),
                c.fabric_stats(),
                c.ionode_stats(),
                Vec::new(),
                c.resilience(),
            ),
            StorageTarget::ObjStore(c) => (
                c.storage_stats(),
                c.shard_requests(),
                c.fabric_stats(),
                Vec::new(),
                c.gateway_stats(),
                c.resilience(),
            ),
        });
    let analysis = clock.time("monitor.analysis_s", || {
        let timelines: Vec<_> = servers
            .iter()
            .flat_map(|s| s.timelines.iter().cloned())
            .collect();
        SystemAnalysis::from_timelines(&timelines)
    });
    let report = MeasurementReport {
        job,
        profile: profile_out,
        dxt,
        servers,
        mds_ops,
        analysis,
        fabrics,
        burst_buffers,
        gateways,
        requests,
        resilience,
        exec_profile,
    };
    let keep_start = Instant::now();
    let kept = keep(&report)?;
    let keep_s = keep_start.elapsed().as_secs_f64();
    clock.time("bench.drop_s", || {
        drop((report, handle, spec, target, source))
    });
    Ok(Staged {
        wall: start.elapsed().as_secs_f64() - keep_s,
        clock,
        events: run.events,
        ops,
        records: records as u64,
        kept,
    })
}
