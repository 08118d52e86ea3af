//! pipebench: times the pioeval measurement pipeline end to end and
//! layer by layer. `run.py` builds and drives this binary; see
//! `README.md` for the metrics and what each one feeds.
//!
//! ```text
//! pipebench --workload <name> --seed <n> --seconds <s> --mode <mode>
//! ```
//!
//! Modes:
//! * `plain`: rounds of set-up, untraced sequential, traced sequential
//!   and threaded trips through `measure_target_instrumented`, until
//!   `--seconds` have passed; prints the end-to-end medians.
//! * `layers`: rounds of one plain trip and three staged trips
//!   (untraced, traced, threaded and profiled) that call each layer
//!   themselves; prints the per-layer medians.
//! * `trip` / `trip-traced`: one checked trip, then the process's peak
//!   resident memory (`VmHWM` of `/proc/self/status`, so Linux only).
//!
//! The last line of standard output is one JSON object: metric values
//! by name (`BENCHMARK.json` holds their units), the run's fingerprint
//! and the host facts.

mod calib;
mod check;
mod trip;
mod workload;

use check::{check, fingerprint, same, Fingerprint};
use pioeval_des::{Backend, ExecMode, ParallelConfig, Partitioner, WindowPolicy};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};
use workload::Bench;

/// Metrics that need two hardware threads.
const PARALLEL_METRICS: [&str; 8] = [
    "par2_measure_s",
    "des.par.simulate_s",
    "des.par.windows",
    "des.par.efficiency",
    "des.par.barrier_share",
    "des.par.stall_share",
    "des.par.mailbox_share",
    "des.par.compute_imbalance",
];

/// The threaded executor setting: 2 OS-thread workers.
fn par2() -> ExecMode {
    ExecMode::Parallel(ParallelConfig {
        threads: 2,
        window: WindowPolicy::Adaptive,
        partitioner: Partitioner::RoundRobin,
        backend: Backend::Threads,
    })
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Trip bookkeeping shared by every mode: attempts, failures, the run's
/// reference fingerprint and the collected samples.
struct Run<'a> {
    bench: &'a Bench,
    attempted: u64,
    failed: u64,
    reference: Option<Fingerprint>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl<'a> Run<'a> {
    fn new(bench: &'a Bench) -> Self {
        Run {
            bench,
            attempted: 0,
            failed: 0,
            reference: None,
            samples: BTreeMap::new(),
        }
    }

    /// Check a trip's report and hold its fingerprint against the run's
    /// first one.
    fn verify(&mut self, report: &pioeval_core::MeasurementReport) -> Result<(), String> {
        check(self.bench, report)?;
        let fp = fingerprint(
            report,
            matches!(self.bench.target, pioeval_core::TargetConfig::Pfs(_)),
        );
        match &self.reference {
            Some(first) => same(first, &fp),
            None => {
                self.reference = Some(fp);
                Ok(())
            }
        }
    }

    /// Count one trip's outcome.
    fn outcome<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("pipebench: {} {what} trip failed: {e}", self.bench.name);
                None
            }
        }
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn med(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }
}

/// A plain trip of `exec`, checked; `Ok(seconds)`.
fn plain_trip(run: &mut Run, exec: &ExecMode, traced: bool) -> Result<f64, String> {
    let bench = run.bench;
    trip::plain(bench, exec, traced, |r| run.verify(r)).map(|(secs, ())| secs)
}

/// Set-up trips per round: they are short, so several share one pair of
/// calibration runs.
const SETUPS_PER_ROUND: usize = 10;

/// End-to-end mode. Each round makes the set-up trips, then two
/// sequential trips around a traced one, then two threaded trips: the
/// sequential time is the user's time to result and the threaded time
/// the noisiest, so both get two samples a round. Every trip is
/// bracketed by calibration kernel runs.
fn plain_mode(run: &mut Run, deadline: Instant, parallel: bool) -> calib::Calibrator {
    let mut cal = calib::Calibrator::default();
    cal.tick();
    let mut trips = vec![
        ("sequential", "measure_s", ExecMode::Sequential, false),
        ("traced", "traced_measure_s", ExecMode::Sequential, true),
        ("sequential", "measure_s", ExecMode::Sequential, false),
    ];
    if parallel {
        trips.push(("threaded", "par2_measure_s", par2(), false));
        trips.push(("threaded", "par2_measure_s", par2(), false));
    }
    loop {
        for _ in 0..SETUPS_PER_ROUND {
            let r = trip::setup(run.bench);
            if let Some(s) = run.outcome("setup", r) {
                cal.record("setup_s", s);
            }
        }
        cal.tick();
        for (what, name, exec, traced) in &trips {
            let r = plain_trip(run, exec, *traced);
            if let Some(s) = run.outcome(what, r) {
                cal.record(name, s);
            }
            cal.tick();
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    cal
}

/// A staged trip of `exec`, checked; keeps the phase-profile analysis
/// of a profiled trip.
fn staged_trip(
    run: &mut Run,
    exec: &ExecMode,
    traced: bool,
    profile: bool,
) -> Result<trip::Staged<Option<pioeval_monitor::ProfileAnalysis>>, String> {
    let bench = run.bench;
    trip::staged(bench, exec, traced, profile, |r| {
        run.verify(r)?;
        if let Some(asm) = &r.requests {
            run.push("reqtrace.requests", asm.requests.len() as f64);
        }
        match (&r.exec_profile, profile) {
            (None, true) => Err("the threaded trip returned no phase profile".into()),
            (p, _) => Ok(p.as_ref().map(pioeval_monitor::analyze_profile)),
        }
    })
}

/// Per-layer mode. The differences and ratios between trips are taken
/// within a round, where the trips ran back to back, so that the host's
/// drift over the run cancels.
fn layers_mode(run: &mut Run, deadline: Instant, parallel: bool) {
    loop {
        let r = plain_trip(run, &ExecMode::Sequential, false);
        let plain = run.outcome("sequential", r);
        let r = staged_trip(run, &ExecMode::Sequential, false, false);
        let mut untraced_sim = None;
        if let Some(st) = run.outcome("staged", r) {
            for &(name, secs) in &st.clock.stages {
                run.push(name, secs);
            }
            if let Some(plain) = plain {
                run.push("bench.trace_overhead", st.wall / plain - 1.0);
            }
            run.push("bench.stage_cover", st.clock.total() / st.wall);
            run.push("des.events", st.events as f64);
            run.push("workloads.ops", st.ops as f64);
            run.push("iostack.records", st.records as f64);
            untraced_sim = Some(st.clock.get("des.simulate_s"));
        }
        let r = staged_trip(run, &ExecMode::Sequential, true, false);
        if let Some(st) = run.outcome("staged traced", r) {
            if let Some(untraced) = untraced_sim {
                run.push(
                    "reqtrace.record_s",
                    st.clock.get("des.simulate_s") - untraced,
                );
            }
            run.push("reqtrace.drain_s", st.clock.get("reqtrace.drain_s"));
            run.push("reqtrace.assemble_s", st.clock.get("reqtrace.assemble_s"));
        }
        if parallel {
            let r = staged_trip(run, &par2(), false, true);
            if let Some(st) = run.outcome("staged threaded", r) {
                run.push("des.par.simulate_s", st.clock.get("des.simulate_s"));
                if let Some(a) = st.kept {
                    run.push("des.par.windows", a.windows as f64);
                    run.push("des.par.efficiency", a.parallel_efficiency);
                    run.push("des.par.barrier_share", a.barrier_share);
                    run.push("des.par.stall_share", a.stall_share);
                    run.push("des.par.mailbox_share", a.mailbox_share);
                    run.push("des.par.compute_imbalance", a.compute_imbalance);
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// The per-layer metrics: sample medians, the event rate and the
/// fingerprint.
fn layer_metrics(run: &Run) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> =
        run.samples.iter().map(|(n, v)| (*n, median(v))).collect();
    if let (Some(sim), Some(events)) = (run.med("des.simulate_s"), run.med("des.events")) {
        out.insert("des.events_per_s", events / sim);
    }
    for (&name, &raw) in run.reference.iter().flatten() {
        let raw = raw as f64;
        out.insert(name, if name.ends_with("_s") { raw / 1e9 } else { raw });
    }
    out
}

/// Peak resident memory of this process so far, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One executor setting, as the host facts record it.
#[derive(Serialize)]
struct Executor {
    name: &'static str,
    backend: &'static str,
    workers: u32,
    window: Option<&'static str>,
    partitioner: Option<&'static str>,
    request_trace: bool,
    skipped: bool,
}

/// How the end-to-end times were calibrated.
#[derive(Serialize)]
struct Calibration {
    ref_s: f64,
    kernel_median_s: f64,
    kernel_runs: usize,
    raw_median_s: HashMap<String, f64>,
}

#[derive(Serialize)]
struct Host {
    nproc: usize,
    workload: &'static str,
    ranks: u32,
    executors: Vec<Executor>,
    calibration: Option<Calibration>,
}

/// The result line.
#[derive(Serialize)]
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: HashMap<String, f64>,
    fingerprint: HashMap<String, u64>,
    host: Host,
    skipped: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pipebench --workload <{}> --seed <n> --seconds <s> \
         --mode <plain|layers|trip|trip-traced>",
        workload::NAMES.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => usage(),
        }
    }
    let get = |k: &str| opts.get(k).cloned().unwrap_or_else(|| usage());
    let seed: u64 = get("seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = get("seconds").parse().unwrap_or_else(|_| usage());
    let mode = get("mode");
    let Some(bench) = workload::generate(&get("workload"), seed) else {
        usage()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel = nproc >= 2;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut run = Run::new(&bench);

    let mut calibration = None;
    let metrics: BTreeMap<&'static str, f64> = match mode.as_str() {
        "plain" => {
            let (trips, kernels) = plain_mode(&mut run, deadline, parallel).finish();
            let mut raw: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for (name, wall, calibrated) in trips {
                run.push(name, calibrated);
                raw.entry(name).or_default().push(wall);
            }
            calibration = Some(Calibration {
                ref_s: calib::REF_S,
                kernel_median_s: median(&kernels),
                kernel_runs: kernels.len(),
                raw_median_s: raw
                    .iter()
                    .map(|(n, v)| (n.to_string(), median(v)))
                    .collect(),
            });
            run.samples.iter().map(|(n, v)| (*n, median(v))).collect()
        }
        "layers" => {
            layers_mode(&mut run, deadline, parallel);
            layer_metrics(&run)
        }
        "trip" | "trip-traced" => {
            let traced = mode == "trip-traced";
            let r = plain_trip(&mut run, &ExecMode::Sequential, traced).and_then(|_| peak_rss_mb());
            let name = if traced {
                "traced_peak_rss_mb"
            } else {
                "peak_rss_mb"
            };
            run.outcome("single", r)
                .map(|mb| (name, mb))
                .into_iter()
                .collect()
        }
        _ => usage(),
    };

    let skipped: Vec<String> = if parallel {
        Vec::new()
    } else {
        PARALLEL_METRICS
            .iter()
            .map(|m| format!("{m}: nproc {nproc} < 2"))
            .collect()
    };
    let sequential = |name, request_trace| Executor {
        name,
        backend: "sequential",
        workers: 1,
        window: None,
        partitioner: None,
        request_trace,
        skipped: false,
    };
    let out = Output {
        correct: run.failed == 0 && run.attempted > 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        fingerprint: run
            .reference
            .iter()
            .flatten()
            .map(|(n, v)| (n.to_string(), *v))
            .collect(),
        host: Host {
            nproc,
            workload: bench.name,
            ranks: bench.nranks,
            executors: vec![
                sequential("seq", false),
                sequential("traced", true),
                Executor {
                    name: "par2",
                    backend: "threads",
                    workers: 2,
                    window: Some("adaptive"),
                    partitioner: Some("round-robin"),
                    request_trace: false,
                    skipped: !parallel,
                },
            ],
            calibration,
        },
        skipped,
    };
    println!(
        "{}",
        serde_json::to_string(&out).expect("the result serializes")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every trip kind of a run reproduces the first trip's simulated
    /// counts, every check passes, and the staged trip's stages cover
    /// its wall time.
    #[test]
    fn trips_agree_and_stages_cover_the_wall() {
        for name in workload::NAMES {
            let bench = workload::generate(name, 7).expect("known workload");
            let mut run = Run::new(&bench);
            plain_trip(&mut run, &ExecMode::Sequential, false).expect("plain trip");
            plain_trip(&mut run, &ExecMode::Sequential, true).expect("traced trip");
            plain_trip(&mut run, &par2(), false).expect("threaded trip");
            let st = staged_trip(&mut run, &ExecMode::Sequential, false, false).expect("staged");
            let cover = st.clock.total() / st.wall;
            assert!((cover - 1.0).abs() < 0.05, "{name}: stage cover {cover}");
            assert!(
                st.clock.get("lint.check_s") > 0.0,
                "{name}: no pre-flight lint"
            );
            staged_trip(&mut run, &ExecMode::Sequential, true, false).expect("staged traced");
            let par = staged_trip(&mut run, &par2(), false, true).expect("staged threaded");
            assert!(
                par.kept.is_some(),
                "{name}: threaded trip has no phase profile"
            );
            let fp = run.reference.as_ref().expect("reference fingerprint");
            assert_eq!(fp["job.bytes_written"], bench.expect_written);
            assert_eq!(run.samples["reqtrace.requests"].len(), 1);
        }
    }

    #[test]
    fn a_changed_count_fails_the_run() {
        let bench = workload::generate("mdtest_storm", 1).expect("known");
        let mut run = Run::new(&bench);
        plain_trip(&mut run, &ExecMode::Sequential, false).expect("plain trip");
        let reference = run.reference.as_mut().expect("reference fingerprint");
        *reference.get_mut("pfs.mds.requests").expect("mds count") += 1;
        let err = plain_trip(&mut run, &ExecMode::Sequential, false).expect_err("mismatch");
        assert!(err.contains("pfs.mds.requests"), "{err}");
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_read() {
        let mb = peak_rss_mb().expect("VmHWM");
        assert!(mb > 0.0);
    }
}
